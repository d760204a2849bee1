//! The coordinator: plans shards, drives workers, merges results.
//!
//! The coordinator is a **single-threaded multiplexed event loop**:
//! every worker socket is switched to non-blocking mode after the
//! handshake and one readiness loop services them all — draining
//! frames, flushing queued writes, checking heartbeat liveness,
//! assigning tasks and merging streamed partial results as they arrive.
//! No per-worker session thread exists; the only blocking phase is the
//! initial serial connect/handshake, bounded by
//! [`ClusterConfig::connect_timeout_ms`] per worker. A worker whose
//! handshake announces a wire revision other than [`WIRE_VERSION`] is
//! refused there and counted as lost.
//!
//! Scheduling is dynamic. Planned tasks are striped across per-worker
//! deques; a worker that runs dry claims from its own deque, then from
//! the global requeue list, then **steals half** of the richest peer's
//! backlog. A task that runs much longer than the completed-task median
//! (a straggler) is *truncated*: the coordinator asks the worker to
//! stop after the group in flight and re-plans the unfinished tail onto
//! idle workers via [`split_range`]. Liveness is heartbeat-based as
//! before: a silent worker is declared dead, its socket shut down, and
//! its in-flight task requeued with the dead worker *excluded* — the
//! task will be retried, but never on the node that just failed it.
//! Retries stay bounded per task; exhausting them fails the whole job.
//!
//! With a checkpoint configured, every completed task's result blobs
//! are appended to a torn-tail-tolerant file; a restarted coordinator
//! resumes from it, re-planning only uncovered groups — merged work is
//! never re-fetched (see [`crate::checkpoint`]).
//!
//! The merge is deterministic by construction: every completed range is
//! a contiguous run of row groups, ranges are verified pairwise
//! disjoint, and concatenating their per-group batch lists in
//! `group_start` order rebuilds exactly the partition list a
//! single-process [`Pipeline::session`](ivnt_core::Pipeline::session)
//! over [`RunOptions::store`](ivnt_core::pipeline::RunOptions::store)
//! produces — bit-identical, which the integration tests assert under
//! every worker count and every injected fault.

use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ivnt_frame::batch::Batch;
use ivnt_frame::frame::DataFrame;
use ivnt_store::layout::checksum;
use ivnt_store::{Footer, Predicate};

use crate::checkpoint::{Checkpoint, CheckpointEntry};
use crate::codec::decode_batch_compressed;
use crate::error::{Error, Result};
use crate::job::JobSpec;
use crate::plan::{plan_shards_filtered, split_range};
use crate::wire::{self, Message, MAX_FRAME_LEN, WIRE_VERSION};

/// Scheduling knobs of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Interval workers must heartbeat at.
    pub heartbeat_ms: u64,
    /// Silence threshold after which a worker is declared dead.
    pub liveness_timeout_ms: u64,
    /// Retries per task before the job fails (attempt 0 is free, so a
    /// task runs at most `max_task_retries + 1` times).
    pub max_task_retries: u32,
    /// Target shard tasks per worker — more gives the scheduler room to
    /// rebalance around a dead node at the cost of more round trips.
    pub tasks_per_worker: usize,
    /// Connect/handshake patience per worker.
    pub connect_timeout_ms: u64,
    /// Whether to collect each worker's metrics snapshot at session end
    /// and merge them into [`ClusterRun::worker_metrics`]. Collection is
    /// best-effort: a dead worker simply contributes nothing.
    pub collect_metrics: bool,
    /// A task is a straggler once its elapsed time exceeds this many
    /// times the median completed-task duration.
    pub straggler_factor: f64,
    /// Completed tasks needed before straggler detection arms — the
    /// median of one sample is noise.
    pub straggler_min_samples: usize,
    /// A straggler's unfinished tail is only split off when it still
    /// spans at least this many groups; shorter tails finish sooner
    /// than a round trip.
    pub min_split_groups: u32,
    /// Checkpoint file for coordinator-restart recovery; `None` runs
    /// without one.
    pub checkpoint_path: Option<String>,
    /// Fault injection: simulate a coordinator crash after this many
    /// task completions (the run errors out, leaving the checkpoint
    /// behind to resume from). Also armed by `coordinator_restart` in
    /// [`crate::worker::FAULT_ENV`].
    pub restart_after_tasks: Option<u32>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            heartbeat_ms: 100,
            liveness_timeout_ms: 1_000,
            max_task_retries: 3,
            tasks_per_worker: 3,
            connect_timeout_ms: 5_000,
            collect_metrics: true,
            straggler_factor: 4.0,
            straggler_min_samples: 3,
            min_split_groups: 2,
            checkpoint_path: None,
            restart_after_tasks: None,
        }
    }
}

/// What happened during a cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Workers the run was started with.
    pub workers: usize,
    /// Workers declared dead during the run.
    pub workers_lost: usize,
    /// Shard tasks scheduled, including tasks created by straggler
    /// splits (but not tasks resumed from a checkpoint).
    pub tasks: usize,
    /// Task requeues (dead worker or per-task error).
    pub retries: u64,
    /// Row groups in the store.
    pub groups_total: u32,
    /// Groups pruned by zone maps at plan time.
    pub groups_pruned: u32,
    /// Interpreted signal rows in the merged result.
    pub rows: usize,
    /// Steal events: a dry worker taking half of a peer's backlog.
    pub steals: u64,
    /// Straggler splits: a slow shard's tail re-planned onto new tasks.
    pub splits: u64,
    /// Completed tasks recovered from a checkpoint instead of re-run.
    pub tasks_resumed: usize,
    /// Streamed `PartialResult` frames merged.
    pub partial_frames: u64,
    /// Result payload bytes that actually crossed the wire.
    pub wire_result_bytes: u64,
    /// What the same results would have cost in the flat
    /// [`crate::codec::encode_batch`] encoding — the denominator of
    /// [`ClusterStats::compression_ratio`].
    pub wire_result_raw_bytes: u64,
}

impl ClusterStats {
    /// Wire compression ratio of result traffic (flat-encoding bytes
    /// over actual bytes); `1.0` when nothing crossed the wire.
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_result_bytes == 0 {
            1.0
        } else {
            self.wire_result_raw_bytes as f64 / self.wire_result_bytes as f64
        }
    }
}

/// A finished cluster run: the merged frame plus its statistics.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Interpreted signals, bit-identical to a single-process store
    /// session over the same store and job.
    pub frame: DataFrame,
    /// Scheduling statistics.
    pub stats: ClusterStats,
    /// Merged metrics snapshots of every worker that reported one
    /// ([`ClusterConfig::collect_metrics`]); counters add, gauges take
    /// the max. Empty when collection is off or no worker survived to
    /// report. Per-shard scan counters (`store_scan_*`) and task
    /// timings (`cluster_task_seconds`) live here.
    pub worker_metrics: ivnt_obs::Snapshot,
}

/// Reorder buffer for one task's streamed [`Message::PartialResult`]
/// frames. Slices arrive tagged with a 0-based `seq`; the accumulator
/// accepts any arrival order and [`PartialAccum::finish`] verifies the
/// stream was gap-free before yielding the blobs in seq (= group)
/// order. Public so the wire proptests can drive it directly.
#[derive(Debug, Default)]
pub struct PartialAccum {
    parts: Vec<Option<(u32, Vec<Vec<u8>>)>>,
    inserted: usize,
}

impl PartialAccum {
    /// An empty accumulator.
    pub fn new() -> PartialAccum {
        PartialAccum::default()
    }

    /// Slices received so far.
    pub fn received(&self) -> u32 {
        self.inserted as u32
    }

    /// Accepts slice `seq` covering `group`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] for a duplicate `seq` or one so far
    /// beyond the stream that it cannot be honest.
    pub fn insert(&mut self, seq: u32, group: u32, batches: Vec<Vec<u8>>) -> Result<()> {
        if u64::from(seq) > MAX_FRAME_LEN {
            return Err(Error::Protocol(format!("partial seq {seq} out of range")));
        }
        let idx = seq as usize;
        if idx >= self.parts.len() {
            self.parts.resize_with(idx + 1, || None);
        }
        if self.parts[idx].is_some() {
            return Err(Error::Protocol(format!("duplicate partial seq {seq}")));
        }
        self.parts[idx] = Some((group, batches));
        self.inserted += 1;
        Ok(())
    }

    /// Closes the stream: exactly `parts` slices with seqs `0..parts`,
    /// groups strictly ascending. Returns the concatenated blobs in seq
    /// order — per-group batches in group order, ready to merge.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] when slices are missing or group
    /// order is violated.
    pub fn finish(self, parts: u32) -> Result<Vec<Vec<u8>>> {
        if self.parts.len() != parts as usize || self.inserted != parts as usize {
            return Err(Error::Protocol(format!(
                "task finished with {} of {parts} partial slices",
                self.inserted
            )));
        }
        let mut blobs = Vec::new();
        let mut prev_group: Option<u32> = None;
        for slot in self.parts {
            let (group, batches) =
                slot.ok_or_else(|| Error::Protocol("gap in partial slice sequence".into()))?;
            if prev_group.is_some_and(|p| group <= p) {
                return Err(Error::Protocol(format!(
                    "partial groups out of order at group {group}"
                )));
            }
            prev_group = Some(group);
            blobs.extend(batches);
        }
        Ok(blobs)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskStatus {
    Pending,
    InFlight(usize),
    Done,
}

struct TaskSlot {
    task: crate::plan::ShardTask,
    status: TaskStatus,
    attempts: u32,
    excluded: HashSet<usize>,
    last_error: Option<String>,
    accum: PartialAccum,
    /// Next group the worker will report a partial for.
    progress: u32,
    truncate_sent: bool,
    started: Instant,
    /// Set when `status == Done`: compressed blobs in group order.
    result: Option<Vec<Vec<u8>>>,
}

impl TaskSlot {
    fn new(task: crate::plan::ShardTask) -> TaskSlot {
        TaskSlot {
            task,
            status: TaskStatus::Pending,
            attempts: 0,
            excluded: HashSet::new(),
            last_error: None,
            accum: PartialAccum::new(),
            progress: task.group_start,
            truncate_sent: false,
            started: Instant::now(),
            result: None,
        }
    }
}

/// One worker connection inside the event loop. `stream == None` means
/// the worker is dead (never connected, or declared lost mid-run).
struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    woff: usize,
    running: Option<u32>,
    assigned_at: Instant,
    last_seen: Instant,
    last_beat: Option<Instant>,
    reported_metrics: bool,
}

impl Conn {
    fn alive(&self) -> bool {
        self.stream.is_some()
    }

    /// Queues a frame for the non-blocking write path.
    fn queue(&mut self, msg: &Message) {
        if self.stream.is_some() {
            self.wbuf.extend_from_slice(&wire::encode_frame(msg));
        }
    }

    /// Pushes queued bytes until the socket would block.
    fn flush_writes(&mut self) -> Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        while self.woff < self.wbuf.len() {
            match stream.write(&self.wbuf[self.woff..]) {
                Ok(0) => return Err(Error::Truncated("worker closed while writing".into())),
                Ok(n) => self.woff += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::Io(e)),
            }
        }
        if self.woff == self.wbuf.len() {
            self.wbuf.clear();
            self.woff = 0;
        }
        Ok(())
    }

    /// Drains readable bytes into the frame buffer. Returns whether any
    /// bytes arrived.
    fn read_available(&mut self, scratch: &mut [u8]) -> Result<bool> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(false);
        };
        let mut any = false;
        loop {
            match stream.read(scratch) {
                Ok(0) => {
                    if any {
                        // Deliver what arrived; the close surfaces on
                        // the next poll.
                        return Ok(true);
                    }
                    return Err(Error::Truncated("worker closed the connection".into()));
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    any = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::Io(e)),
            }
        }
    }

    /// Extracts one complete frame from the buffer, if present.
    fn take_frame(&mut self) -> Result<Option<Message>> {
        if self.rbuf.len() < 4 {
            return Ok(None);
        }
        let len = u64::from(u32::from_le_bytes(
            self.rbuf[..4].try_into().expect("4 bytes"),
        ));
        if len > MAX_FRAME_LEN {
            return Err(Error::FrameTooLarge(len));
        }
        let total = 4 + len as usize + 8;
        if self.rbuf.len() < total {
            return Ok(None);
        }
        let payload = &self.rbuf[4..4 + len as usize];
        let sum = u64::from_le_bytes(
            self.rbuf[4 + len as usize..total]
                .try_into()
                .expect("8 bytes"),
        );
        if sum != checksum(payload) {
            return Err(Error::FrameChecksum);
        }
        let msg = wire::decode_message(payload)?;
        self.rbuf.drain(..total);
        self.last_seen = Instant::now();
        Ok(Some(msg))
    }

    fn close(&mut self) {
        if let Some(stream) = self.stream.take() {
            stream.shutdown(std::net::Shutdown::Both).ok();
        }
    }
}

/// Runs `job` across `workers` (TCP addresses) and merges the shards.
///
/// # Errors
///
/// - [`Error::Job`] when no worker is reachable, a task exhausts its
///   retries, a task becomes unschedulable (every remaining worker has
///   already failed it), or the coordinator-restart fault fires.
/// - Planner/pipeline errors from rebuilding the job locally.
pub fn run_job(job: &JobSpec, workers: &[String], config: &ClusterConfig) -> Result<ClusterRun> {
    if workers.is_empty() {
        return Err(Error::Job("no workers given".into()));
    }
    // The coordinator rebuilds the pipeline too: it needs the predicate
    // for planning and the schema for the merge.
    let pipeline = job.pipeline()?;
    let schema = ivnt_core::interpret::signal_schema();
    let predicate = pipeline.store_predicate();
    let footer = {
        let reader = ivnt_store::StoreReader::open(&job.store_path)?;
        reader.footer().clone()
    };

    // Checkpoint: recover completed ranges from a previous coordinator
    // (if any), and re-plan only what they do not cover.
    let restart_fault = restart_fault_armed();
    if restart_fault && config.checkpoint_path.is_none() {
        return Err(Error::Job(
            "coordinator_restart fault requires a checkpoint path".into(),
        ));
    }
    let mut checkpoint = None;
    let mut recovered: Vec<CheckpointEntry> = Vec::new();
    if let Some(path) = &config.checkpoint_path {
        let (ckpt, entries) = Checkpoint::resume_or_create(path, job.fingerprint(&footer))?;
        checkpoint = Some(ckpt);
        recovered = entries;
    }
    let restart_after = config
        .restart_after_tasks
        // The env-armed fault fires once: the resumed coordinator (which
        // recovered entries) runs to completion.
        .or_else(|| (restart_fault && recovered.is_empty()).then_some(1));

    let plan = plan_shards_filtered(
        &footer,
        &predicate,
        workers.len() * config.tasks_per_worker.max(1),
        |g| {
            !recovered
                .iter()
                .any(|e| (e.group_start..e.group_end).contains(&g))
        },
    );

    let mut stats = ClusterStats {
        workers: workers.len(),
        tasks: plan.tasks.len(),
        groups_total: plan.groups_total,
        groups_pruned: plan.groups_pruned,
        tasks_resumed: recovered.len(),
        ..ClusterStats::default()
    };

    // Degenerate plans (everything pruned, or everything recovered) are
    // answered without touching the network.
    if plan.tasks.is_empty() {
        let frame = merge_entries(&schema, recovered, Vec::new())?;
        stats.rows = frame.num_rows();
        if let Some(ckpt) = checkpoint {
            ckpt.remove();
        }
        record_run_counters(&stats);
        return Ok(ClusterRun {
            frame,
            stats,
            worker_metrics: ivnt_obs::Snapshot::default(),
        });
    }

    let mut driver = Driver {
        config,
        footer,
        predicate,
        schema,
        conns: Vec::with_capacity(workers.len()),
        slots: plan.tasks.iter().map(|t| TaskSlot::new(*t)).collect(),
        deques: vec![VecDeque::new(); workers.len()],
        global: VecDeque::new(),
        durations: Vec::new(),
        failed: None,
        stats,
        worker_metrics: ivnt_obs::Snapshot::default(),
        checkpoint,
        recovered,
        completed_this_run: 0,
        restart_after,
    };
    // Stripe tasks across workers; stealing rebalances from there.
    for (i, t) in plan.tasks.iter().enumerate() {
        driver.deques[i % workers.len()].push_back(t.task_id);
    }

    driver.connect_all(job, workers);
    if !driver.conns.iter().any(Conn::alive) {
        return Err(Error::Job(format!(
            "no worker reachable (tried {})",
            workers.len()
        )));
    }

    let outcome = driver.event_loop();
    driver.shutdown_conns(outcome.is_ok() && driver.failed.is_none());

    outcome?;
    if let Some(why) = driver.failed {
        return Err(Error::Job(why));
    }

    let completed: Vec<CheckpointEntry> = driver
        .slots
        .iter_mut()
        .map(|s| {
            let blobs = s.result.take().ok_or_else(|| {
                Error::Job(format!(
                    "task {} never completed (no reachable worker?)",
                    s.task.task_id
                ))
            })?;
            Ok(CheckpointEntry {
                group_start: s.task.group_start,
                group_end: s.task.group_end,
                blobs,
            })
        })
        .collect::<Result<_>>()?;

    let frame = merge_entries(&driver.schema, driver.recovered, completed)?;
    driver.stats.rows = frame.num_rows();
    driver.stats.tasks = driver.slots.len();
    if let Some(ckpt) = driver.checkpoint.take() {
        ckpt.remove();
    }
    record_run_counters(&driver.stats);
    Ok(ClusterRun {
        frame,
        stats: driver.stats,
        worker_metrics: driver.worker_metrics,
    })
}

/// Whether [`crate::worker::FAULT_ENV`] arms the coordinator-restart
/// fault. Worker-side faults in the same variable are ignored here,
/// exactly as workers ignore `coordinator_restart`.
fn restart_fault_armed() -> bool {
    std::env::var(crate::worker::FAULT_ENV).is_ok_and(|v| {
        v.split(',')
            .map(str::trim)
            .any(|f| f == "coordinator_restart")
    })
}

fn record_run_counters(stats: &ClusterStats) {
    ivnt_obs::with(|r| {
        r.add("cluster_runs_total", 1);
        r.add("cluster_tasks_planned_total", stats.tasks as u64);
        r.add(
            "cluster_groups_pruned_total",
            u64::from(stats.groups_pruned),
        );
        r.add("cluster_steals_total", stats.steals);
        r.add("cluster_splits_total", stats.splits);
        r.add("cluster_tasks_resumed_total", stats.tasks_resumed as u64);
        r.add("cluster_partial_frames_total", stats.partial_frames);
        r.add("cluster_wire_result_bytes_total", stats.wire_result_bytes);
        r.add(
            "cluster_wire_result_raw_bytes_total",
            stats.wire_result_raw_bytes,
        );
    });
}

/// Decodes recovered + freshly completed ranges and concatenates their
/// batches in group order, verifying no group was merged twice.
fn merge_entries(
    schema: &std::sync::Arc<ivnt_frame::datatype::Schema>,
    recovered: Vec<CheckpointEntry>,
    completed: Vec<CheckpointEntry>,
) -> Result<DataFrame> {
    let mut entries: Vec<CheckpointEntry> = recovered;
    entries.extend(completed);
    entries.sort_by_key(|e| e.group_start);
    let mut parts: Vec<Batch> = Vec::new();
    let mut prev_end: Option<u32> = None;
    for e in &entries {
        if prev_end.is_some_and(|p| e.group_start < p) {
            return Err(Error::Job(format!(
                "merge ranges overlap at group {} — a task was merged twice",
                e.group_start
            )));
        }
        prev_end = Some(e.group_end);
        for blob in &e.blobs {
            parts.push(decode_batch_compressed(blob, schema)?);
        }
    }
    if parts.is_empty() {
        parts.push(Batch::empty(schema.clone()));
    }
    Ok(DataFrame::from_partitions(schema.clone(), parts)?)
}

struct Driver<'a> {
    config: &'a ClusterConfig,
    footer: Footer,
    predicate: Predicate,
    schema: std::sync::Arc<ivnt_frame::datatype::Schema>,
    conns: Vec<Conn>,
    slots: Vec<TaskSlot>,
    /// Per-worker task backlogs; stealing moves ids between them.
    deques: Vec<VecDeque<u32>>,
    /// Requeued and split-off tasks, claimable by anyone.
    global: VecDeque<u32>,
    /// Completed-task durations, for the straggler median.
    durations: Vec<f64>,
    failed: Option<String>,
    stats: ClusterStats,
    worker_metrics: ivnt_obs::Snapshot,
    checkpoint: Option<Checkpoint>,
    recovered: Vec<CheckpointEntry>,
    completed_this_run: u32,
    restart_after: Option<u32>,
}

impl Driver<'_> {
    /// Serial blocking connect + handshake + job preamble per worker,
    /// then the socket goes non-blocking for the event loop. A worker
    /// that fails here is simply down — the run continues if anyone
    /// connected.
    fn connect_all(&mut self, job: &JobSpec, workers: &[String]) {
        for addr in workers {
            let now = Instant::now();
            let mut conn = Conn {
                addr: addr.clone(),
                stream: None,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                woff: 0,
                running: None,
                assigned_at: now,
                last_seen: now,
                last_beat: None,
                reported_metrics: false,
            };
            match handshake(addr, job, self.config) {
                Ok(stream) => conn.stream = Some(stream),
                Err(e) => {
                    eprintln!("cluster: worker {addr} unavailable: {e}");
                    self.stats.workers_lost += 1;
                    ivnt_obs::with(|r| r.add("cluster_workers_lost_total", 1));
                }
            }
            self.conns.push(conn);
        }
        // Backlogs striped onto workers that never connected drain into
        // the shared queue immediately.
        for idx in 0..self.conns.len() {
            if !self.conns[idx].alive() {
                let orphaned: Vec<u32> = self.deques[idx].drain(..).collect();
                self.global.extend(orphaned);
            }
        }
    }

    /// The multiplexed readiness loop — the whole run after connect.
    fn event_loop(&mut self) -> Result<()> {
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            let mut progress = false;
            for idx in 0..self.conns.len() {
                if !self.conns[idx].alive() {
                    continue;
                }
                if let Err(e) = self.poll_conn(idx, &mut scratch, &mut progress) {
                    self.conn_failed(idx, &e.to_string());
                }
            }
            self.check_liveness();
            self.check_stragglers();
            self.assign_ready(&mut progress);
            if self.failed.is_some() {
                return Ok(());
            }
            if self.slots.iter().all(|s| s.status == TaskStatus::Done) {
                self.collect_metrics_phase(&mut scratch);
                return Ok(());
            }
            if let Some(n) = self.restart_after {
                if self.completed_this_run >= n {
                    // Simulated crash: drop every socket without a word
                    // and abandon the run. The checkpoint survives.
                    for conn in &mut self.conns {
                        conn.close();
                    }
                    return Err(Error::Job(
                        "fault injection: coordinator restarted — resume from checkpoint".into(),
                    ));
                }
            }
            if !progress {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Flushes writes, drains reads and handles every complete frame of
    /// one connection.
    fn poll_conn(&mut self, idx: usize, scratch: &mut [u8], progress: &mut bool) -> Result<()> {
        self.conns[idx].flush_writes()?;
        if self.conns[idx].read_available(scratch)? {
            *progress = true;
        }
        while let Some(msg) = self.conns[idx].take_frame()? {
            *progress = true;
            self.handle_message(idx, msg)?;
        }
        Ok(())
    }

    /// One decoded frame from worker `idx`. An `Err` here means the
    /// connection can no longer be trusted and is torn down by the
    /// caller.
    fn handle_message(&mut self, idx: usize, msg: Message) -> Result<()> {
        match msg {
            Message::Heartbeat { .. } => {
                let now = Instant::now();
                if let Some(prev) = self.conns[idx].last_beat {
                    ivnt_obs::with(|r| {
                        r.observe(
                            "cluster_heartbeat_gap_seconds",
                            ivnt_obs::SECONDS_BUCKETS,
                            now.duration_since(prev).as_secs_f64(),
                        );
                    });
                }
                self.conns[idx].last_beat = Some(now);
                Ok(())
            }
            Message::PartialResult {
                task_id,
                seq,
                group,
                raw_bytes,
                batches,
            } => {
                let slot = self.running_slot(idx, task_id)?;
                let wire_bytes: u64 = batches.iter().map(|b| b.len() as u64).sum();
                slot.accum.insert(seq, group, batches)?;
                slot.progress = group + 1;
                self.stats.partial_frames += 1;
                self.stats.wire_result_bytes += wire_bytes;
                self.stats.wire_result_raw_bytes += raw_bytes;
                Ok(())
            }
            Message::TaskDone {
                task_id,
                parts,
                group_end,
            } => {
                let slot = self.running_slot(idx, task_id)?;
                if group_end != slot.task.group_end {
                    return Err(Error::Protocol(format!(
                        "task {task_id} finished at group {group_end}, expected {}",
                        slot.task.group_end
                    )));
                }
                let accum = std::mem::take(&mut slot.accum);
                let blobs = accum.finish(parts)?;
                self.complete_task(idx, task_id, blobs)
            }
            Message::TaskError { task_id, message } => {
                let _ = self.running_slot(idx, task_id)?;
                self.conns[idx].running = None;
                self.requeue(task_id, idx, &message);
                Ok(())
            }
            Message::Truncated { task_id, group_end } => {
                self.handle_truncated(idx, task_id, group_end);
                Ok(())
            }
            Message::Metrics { snapshot } => {
                self.worker_metrics.merge(&snapshot);
                self.conns[idx].reported_metrics = true;
                Ok(())
            }
            other => Err(Error::Protocol(format!(
                "unexpected message from {}: {other:?}",
                self.conns[idx].addr
            ))),
        }
    }

    /// The slot of `task_id`, verified in-flight on connection `idx`.
    fn running_slot(&mut self, idx: usize, task_id: u32) -> Result<&mut TaskSlot> {
        let slot = self
            .slots
            .get_mut(task_id as usize)
            .filter(|s| s.status == TaskStatus::InFlight(idx))
            .ok_or_else(|| {
                Error::Protocol(format!("result for task {task_id} not in flight here"))
            })?;
        Ok(slot)
    }

    fn complete_task(&mut self, idx: usize, task_id: u32, blobs: Vec<Vec<u8>>) -> Result<()> {
        let wall = {
            let slot = &mut self.slots[task_id as usize];
            slot.status = TaskStatus::Done;
            slot.result = Some(blobs);
            slot.started.elapsed().as_secs_f64()
        };
        self.durations.push(wall);
        ivnt_obs::with(|r| {
            r.observe(
                "cluster_shard_wall_seconds",
                ivnt_obs::SECONDS_BUCKETS,
                wall,
            );
        });
        self.conns[idx].running = None;
        self.completed_this_run += 1;
        if let Some(ckpt) = self.checkpoint.as_mut() {
            let slot = &self.slots[task_id as usize];
            let blobs = slot.result.as_ref().expect("just set");
            ckpt.append(&CheckpointEntry {
                group_start: slot.task.group_start,
                group_end: slot.task.group_end,
                blobs: blobs.clone(),
            })?;
        }
        Ok(())
    }

    /// Requeues `task_id` after worker `idx` failed it, bounding retries
    /// and failing the job if the task can no longer be scheduled.
    fn requeue(&mut self, task_id: u32, idx: usize, why: &str) {
        let slot = &mut self.slots[task_id as usize];
        if slot.status == TaskStatus::Done {
            return;
        }
        slot.status = TaskStatus::Pending;
        slot.attempts += 1;
        slot.excluded.insert(idx);
        slot.last_error = Some(why.to_string());
        // A retry starts the stream over.
        slot.accum = PartialAccum::new();
        slot.progress = slot.task.group_start;
        slot.truncate_sent = false;
        self.stats.retries += 1;
        ivnt_obs::with(|r| r.add("cluster_retries_total", 1));
        if slot.attempts > self.config.max_task_retries {
            self.failed = Some(format!(
                "task {task_id} failed {} times, giving up (last: {why})",
                slot.attempts
            ));
            return;
        }
        self.global.push_front(task_id);
        self.check_schedulable();
    }

    /// Fails the job if a pending task has been excluded from every
    /// worker still alive — retrying would spin forever.
    fn check_schedulable(&mut self) {
        if self.failed.is_some() {
            return;
        }
        for slot in &self.slots {
            if slot.status != TaskStatus::Pending {
                continue;
            }
            let placeable = self
                .conns
                .iter()
                .enumerate()
                .any(|(w, c)| c.alive() && !slot.excluded.contains(&w));
            if !placeable {
                let why = slot
                    .last_error
                    .as_deref()
                    .unwrap_or("worker lost before completion");
                self.failed = Some(format!(
                    "task {} unschedulable: every remaining worker already failed it (last: {why})",
                    slot.task.task_id
                ));
                return;
            }
        }
    }

    /// Declares worker `idx` dead: closes the socket, requeues its
    /// in-flight task and hands its backlog to the shared queue.
    fn conn_failed(&mut self, idx: usize, why: &str) {
        if !self.conns[idx].alive() {
            return;
        }
        self.conns[idx].close();
        self.stats.workers_lost += 1;
        ivnt_obs::with(|r| r.add("cluster_workers_lost_total", 1));
        if let Some(task_id) = self.conns[idx].running.take() {
            self.requeue(task_id, idx, why);
        }
        let orphaned: Vec<u32> = self.deques[idx].drain(..).collect();
        self.global.extend(orphaned);
        self.check_schedulable();
    }

    /// Declares silent-while-working connections dead. A worker is only
    /// on the clock while a task is in flight on it.
    fn check_liveness(&mut self) {
        let timeout = Duration::from_millis(self.config.liveness_timeout_ms.max(1));
        for idx in 0..self.conns.len() {
            let conn = &self.conns[idx];
            if !conn.alive() || conn.running.is_none() {
                continue;
            }
            let silent = conn.last_seen.elapsed();
            if silent >= timeout {
                let why = format!(
                    "worker {} silent for {silent:?} on task {}",
                    conn.addr,
                    conn.running.expect("checked above")
                );
                self.conn_failed(idx, &why);
            }
        }
    }

    /// Truncates stragglers: a task far past the completed-task median,
    /// with an idle worker available to absorb the split-off tail.
    fn check_stragglers(&mut self) {
        if self.durations.len() < self.config.straggler_min_samples.max(1) {
            return;
        }
        let idle_exists = self.conns.iter().any(|c| c.alive() && c.running.is_none());
        if !idle_exists {
            return;
        }
        let mut sorted = self.durations.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let threshold = (median * self.config.straggler_factor).max(0.005);
        for idx in 0..self.conns.len() {
            let Some(task_id) = self.conns[idx].running else {
                continue;
            };
            let slot = &mut self.slots[task_id as usize];
            if slot.truncate_sent || slot.started.elapsed().as_secs_f64() < threshold {
                continue;
            }
            // Let the worker finish the group in flight, then stop.
            let new_end = (slot.progress + 1).min(slot.task.group_end);
            if slot.task.group_end - new_end < self.config.min_split_groups.max(1) {
                continue;
            }
            slot.truncate_sent = true;
            let msg = Message::Truncate {
                task_id,
                group_end: new_end,
            };
            self.conns[idx].queue(&msg);
        }
    }

    /// The worker agreed to stop early: shrink its task and re-plan the
    /// tail as fresh tasks on the shared queue.
    fn handle_truncated(&mut self, idx: usize, task_id: u32, group_end: u32) {
        let Some(slot) = self.slots.get_mut(task_id as usize) else {
            return;
        };
        // A Truncate that raced task completion changes nothing.
        if slot.status != TaskStatus::InFlight(idx) || group_end >= slot.task.group_end {
            return;
        }
        let old_end = slot.task.group_end;
        slot.task.group_end = group_end;
        let idle = self
            .conns
            .iter()
            .filter(|c| c.alive() && c.running.is_none())
            .count();
        let subs = split_range(
            &self.footer,
            &self.predicate,
            group_end..old_end,
            idle.max(2),
        );
        if subs.is_empty() {
            return;
        }
        self.stats.splits += 1;
        for sub in subs {
            let new_id = self.slots.len() as u32;
            let task = crate::plan::ShardTask {
                task_id: new_id,
                ..sub
            };
            self.slots.push(TaskSlot::new(task));
            self.global.push_back(new_id);
        }
    }

    /// Hands a task to every idle connection that can claim one.
    fn assign_ready(&mut self, progress: &mut bool) {
        if self.failed.is_some() {
            return;
        }
        for idx in 0..self.conns.len() {
            if !self.conns[idx].alive() || self.conns[idx].running.is_some() {
                continue;
            }
            let Some(task_id) = self.claim(idx) else {
                continue;
            };
            let slot = &mut self.slots[task_id as usize];
            slot.status = TaskStatus::InFlight(idx);
            slot.started = Instant::now();
            let task = slot.task;
            self.conns[idx].running = Some(task_id);
            self.conns[idx].assigned_at = Instant::now();
            self.conns[idx].last_seen = Instant::now();
            self.conns[idx].queue(&Message::Assign { task });
            *progress = true;
        }
    }

    /// Claims a task for worker `w`: own backlog first, then the shared
    /// queue, then steal half of the richest peer's backlog.
    fn claim(&mut self, w: usize) -> Option<u32> {
        if let Some(id) = take_claimable(&mut self.deques[w], &self.slots, w) {
            return Some(id);
        }
        if let Some(id) = take_claimable(&mut self.global, &self.slots, w) {
            return Some(id);
        }
        // Steal-half: back half of the largest alive peer's backlog, so
        // the victim keeps the front it is about to work through.
        let victim = (0..self.conns.len())
            .filter(|&v| v != w && self.conns[v].alive())
            .max_by_key(|&v| self.deques[v].len())
            .filter(|&v| !self.deques[v].is_empty())?;
        let keep = self.deques[victim].len() / 2;
        let stolen: Vec<u32> = self.deques[victim].split_off(keep).into();
        self.deques[w].extend(stolen);
        self.stats.steals += 1;
        take_claimable(&mut self.deques[w], &self.slots, w)
    }

    /// End-of-run metrics pull, multiplexed like everything else: ask
    /// every live worker for its snapshot and drain replies until
    /// they all answered or the liveness timeout passes. Best-effort —
    /// a worker that dies here just contributes nothing.
    fn collect_metrics_phase(&mut self, scratch: &mut [u8]) {
        if !self.config.collect_metrics {
            return;
        }
        for conn in &mut self.conns {
            if conn.alive() {
                conn.queue(&Message::MetricsRequest);
            }
        }
        let deadline =
            Instant::now() + Duration::from_millis(self.config.liveness_timeout_ms.max(1));
        while Instant::now() < deadline {
            let mut progress = false;
            for idx in 0..self.conns.len() {
                if !self.conns[idx].alive() || self.conns[idx].reported_metrics {
                    continue;
                }
                if let Err(e) = self.poll_conn(idx, scratch, &mut progress) {
                    let why = e.to_string();
                    // Metrics are optional; a failure here is not a lost
                    // worker, just a silent one.
                    eprintln!("cluster: no metrics from {}: {why}", self.conns[idx].addr);
                    self.conns[idx].close();
                }
            }
            if self.conns.iter().all(|c| !c.alive() || c.reported_metrics) {
                return;
            }
            if !progress {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Final goodbyes: an orderly [`Message::Shutdown`] on a clean run,
    /// a bare socket close otherwise.
    fn shutdown_conns(&mut self, orderly: bool) {
        if orderly {
            for conn in &mut self.conns {
                if conn.alive() {
                    conn.queue(&Message::Shutdown);
                    let _ = conn.flush_writes();
                }
            }
            // Give straggling bytes one short grace period.
            let deadline = Instant::now() + Duration::from_millis(200);
            while Instant::now() < deadline
                && self.conns.iter_mut().any(|c| {
                    c.alive()
                        && !c.wbuf.is_empty()
                        && c.flush_writes().is_ok()
                        && !c.wbuf.is_empty()
                })
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for conn in &mut self.conns {
            conn.close();
        }
    }
}

/// Pops the first task in `queue` that worker `w` may run.
fn take_claimable(queue: &mut VecDeque<u32>, slots: &[TaskSlot], w: usize) -> Option<u32> {
    let pos = queue.iter().position(|&id| {
        let slot = &slots[id as usize];
        slot.status == TaskStatus::Pending && !slot.excluded.contains(&w)
    })?;
    queue.remove(pos)
}

/// Blocking connect + version check + job preamble for one worker;
/// returns the socket already switched to non-blocking mode. A worker
/// announcing any revision but [`WIRE_VERSION`] is refused.
fn handshake(addr: &str, job: &JobSpec, config: &ClusterConfig) -> Result<TcpStream> {
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| Error::Job(format!("bad worker address {addr:?}")))?;
    let timeout = Duration::from_millis(config.connect_timeout_ms.max(1));
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout)).ok();
    wire::write_frame(
        &mut stream,
        &Message::Hello {
            version: WIRE_VERSION,
            peer: format!("coordinator->{addr}"),
        },
    )?;
    match wire::read_frame(&mut stream)? {
        Message::Hello { version, .. } if version == WIRE_VERSION => {}
        Message::Hello { version, .. } => {
            return Err(Error::Protocol(format!(
                "worker {addr} speaks wire v{version}, coordinator v{WIRE_VERSION}"
            )))
        }
        other => return Err(Error::Protocol(format!("expected Hello, got {other:?}"))),
    }
    wire::write_frame(
        &mut stream,
        &Message::Job {
            job: job.clone(),
            heartbeat_ms: u32::try_from(config.heartbeat_ms.max(1)).unwrap_or(u32::MAX),
        },
    )?;
    stream.set_read_timeout(None).ok();
    stream.set_nonblocking(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_accum_accepts_any_arrival_order() {
        let mut accum = PartialAccum::new();
        accum.insert(2, 7, vec![vec![3u8]]).unwrap();
        accum.insert(0, 4, vec![vec![1u8], vec![9u8]]).unwrap();
        accum.insert(1, 5, vec![]).unwrap();
        assert_eq!(accum.received(), 3);
        let blobs = accum.finish(3).unwrap();
        assert_eq!(blobs, vec![vec![1u8], vec![9u8], vec![3u8]]);
    }

    #[test]
    fn partial_accum_rejects_duplicates_gaps_and_disorder() {
        let mut accum = PartialAccum::new();
        accum.insert(0, 4, vec![]).unwrap();
        assert!(matches!(
            accum.insert(0, 4, vec![]),
            Err(Error::Protocol(_))
        ));
        // Gap: seq 2 present, seq 1 missing.
        let mut accum = PartialAccum::new();
        accum.insert(0, 4, vec![]).unwrap();
        accum.insert(2, 6, vec![]).unwrap();
        assert!(matches!(accum.finish(3), Err(Error::Protocol(_))));
        // Wrong part count.
        let mut accum = PartialAccum::new();
        accum.insert(0, 4, vec![]).unwrap();
        assert!(matches!(accum.finish(2), Err(Error::Protocol(_))));
        // Groups must ascend with seq.
        let mut accum = PartialAccum::new();
        accum.insert(0, 5, vec![]).unwrap();
        accum.insert(1, 5, vec![]).unwrap();
        assert!(matches!(accum.finish(2), Err(Error::Protocol(_))));
    }

    #[test]
    fn compression_ratio_is_safe_on_empty_runs() {
        let stats = ClusterStats::default();
        assert_eq!(stats.compression_ratio(), 1.0);
        let stats = ClusterStats {
            wire_result_bytes: 100,
            wire_result_raw_bytes: 350,
            ..ClusterStats::default()
        };
        assert!((stats.compression_ratio() - 3.5).abs() < 1e-9);
    }
}
