//! The worker: executes shard tasks against its local store copy.
//!
//! A worker is a TCP server that speaks one coordinator session at a
//! time: handshake, job preamble, then an assign/result loop with a
//! background heartbeat ticker. It rebuilds the pipeline from the
//! [`JobSpec`](crate::job::JobSpec) and opens the `.ivns` store locally —
//! shard results travel over the socket, raw trace rows never do.
//!
//! The worker **streams**: each row group of an assigned shard is
//! extracted, compressed ([`crate::codec::encode_batch_compressed`]) and
//! shipped as a [`Message::PartialResult`] the moment it is done, so the
//! coordinator merges while the worker computes. Between groups the
//! worker polls for a [`Message::Truncate`] — the coordinator's
//! straggler protocol — and answers with the group it will actually stop
//! at (never one it has already emitted). A coordinator that announces a
//! wire revision other than [`WIRE_VERSION`] ends the session with
//! [`Error::Protocol`].
//!
//! Fault injection lives here too, env-gated via [`FAULT_ENV`]: the
//! coordinator's retry, checksum-reject, liveness-timeout and straggler
//! paths are only trustworthy because a worker can be told to die
//! mid-task, corrupt a result frame, go silent, or crawl on demand.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ivnt_core::pipeline::RunOptions;

use crate::codec::{encode_batch_compressed, encoded_len_raw};
use crate::error::{Error, Result};
use crate::wire::{self, Message, IDLE_TASK, WIRE_VERSION};

/// Environment variable carrying a comma-separated fault list
/// (`kill-mid-task`, `corrupt-result`, `stall-heartbeat`, `slow-task`).
/// The coordinator-side `coordinator_restart` token may appear in the
/// same variable; workers accept and ignore it.
pub const FAULT_ENV: &str = "IVNT_CLUSTER_FAULT";

/// Line a worker prints to stdout once bound, so a spawning parent can
/// learn the (possibly ephemeral) address: `cluster worker listening on
/// 127.0.0.1:PORT`.
pub const LISTEN_PREFIX: &str = "cluster worker listening on ";

/// Test-only failure modes a worker can be armed with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFaults {
    /// Drop the connection without a word upon the first task
    /// assignment — the "node died mid-task" case.
    pub kill_mid_task: bool,
    /// Flip a byte inside the first result frame's payload, so the
    /// coordinator's checksum verification must reject it.
    pub corrupt_result: bool,
    /// Stop heartbeating and sit on the first assigned task until well
    /// past any sane liveness timeout — the "wedged process" case.
    pub stall_heartbeat: bool,
    /// Crawl: sleep a few heartbeats before every row group while still
    /// heartbeating — the straggler the truncate/split path exists for.
    pub slow_task: bool,
}

impl WorkerFaults {
    /// No faults — the production configuration.
    pub fn none() -> WorkerFaults {
        WorkerFaults::default()
    }

    /// Parses a comma-separated fault list.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Job`] for unknown fault names.
    pub fn parse(s: &str) -> Result<WorkerFaults> {
        let mut f = WorkerFaults::none();
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match name {
                "kill-mid-task" => f.kill_mid_task = true,
                "corrupt-result" => f.corrupt_result = true,
                "stall-heartbeat" => f.stall_heartbeat = true,
                "slow-task" => f.slow_task = true,
                // Coordinator-side fault sharing the variable; not ours.
                "coordinator_restart" => {}
                other => {
                    return Err(Error::Job(format!(
                        "unknown fault {other:?} (use kill-mid-task|corrupt-result|\
                         stall-heartbeat|slow-task|coordinator_restart)"
                    )))
                }
            }
        }
        Ok(f)
    }

    /// Reads the fault list from [`FAULT_ENV`]; unset means no faults.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Job`] for unknown fault names in the variable.
    pub fn from_env() -> Result<WorkerFaults> {
        match std::env::var(FAULT_ENV) {
            Ok(v) => WorkerFaults::parse(&v),
            Err(_) => Ok(WorkerFaults::none()),
        }
    }

    /// Whether any fault that must delay the fault window is armed.
    fn delayed(&self) -> bool {
        self.kill_mid_task || self.corrupt_result || self.stall_heartbeat
    }
}

/// A bound worker server, ready to accept coordinator sessions.
pub struct WorkerServer {
    listener: TcpListener,
    name: String,
    faults: WorkerFaults,
}

impl WorkerServer {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind(addr: &str) -> Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        let name = format!("worker@{}", listener.local_addr()?);
        Ok(WorkerServer {
            listener,
            name,
            faults: WorkerFaults::none(),
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Arms the server with fault injection.
    pub fn with_faults(mut self, faults: WorkerFaults) -> WorkerServer {
        self.faults = faults;
        self
    }

    /// Accepts and serves exactly one coordinator session.
    ///
    /// # Errors
    ///
    /// Propagates session failures, including deliberately injected
    /// ones ([`Error::Job`] with a `fault injection:` message).
    pub fn serve_once(&self) -> Result<()> {
        let (stream, _) = self.listener.accept()?;
        serve_session(stream, &self.name, self.faults)
    }

    /// Serves coordinator sessions forever, like a daemon: a failed
    /// session is reported on stderr and the worker accepts the next
    /// one. Only accept-level I/O errors end the loop.
    ///
    /// # Errors
    ///
    /// Returns accept-level I/O failures.
    pub fn serve(&self) -> Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            if let Err(e) = serve_session(stream, &self.name, self.faults) {
                eprintln!("{}: session failed: {e}", self.name);
            }
        }
    }
}

/// Runs one full coordinator session over an accepted connection.
fn serve_session(mut stream: TcpStream, name: &str, faults: WorkerFaults) -> Result<()> {
    stream.set_nodelay(true).ok();
    let theirs = match wire::read_frame(&mut stream)? {
        Message::Hello { version, .. } => version,
        other => return Err(Error::Protocol(format!("expected Hello, got {other:?}"))),
    };
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    // Answer before judging, so a mismatched coordinator can name both
    // revisions in its own error too.
    send(
        &writer,
        &Message::Hello {
            version: WIRE_VERSION,
            peer: name.to_string(),
        },
    )?;
    if theirs != WIRE_VERSION {
        return Err(Error::Protocol(format!(
            "coordinator speaks wire v{theirs}, this worker v{WIRE_VERSION}"
        )));
    }

    let (job, heartbeat_ms) = match wire::read_frame(&mut stream)? {
        Message::Job { job, heartbeat_ms } => (job, heartbeat_ms),
        other => return Err(Error::Protocol(format!("expected Job, got {other:?}"))),
    };
    let pipeline = job.pipeline()?;
    let mut reader = ivnt_store::StoreReader::open(&job.store_path)?;

    // Session-scoped metrics: a fresh registry per coordinator session,
    // installed process-wide so the store scan and pipeline counters of
    // this session's shards land in it. Snapshotted on demand when the
    // coordinator sends [`Message::MetricsRequest`].
    let registry = Arc::new(ivnt_obs::Registry::new());
    let _obs_guard = ivnt_obs::install(Arc::clone(&registry));

    // Heartbeat ticker: a background thread beating every `heartbeat_ms`
    // until the session ends (or the stall fault silences it).
    let running = Arc::new(AtomicBool::new(true));
    let current_task = Arc::new(AtomicU32::new(IDLE_TASK));
    let ticker = {
        let running = Arc::clone(&running);
        let current_task = Arc::clone(&current_task);
        let writer = Arc::clone(&writer);
        let beat = Duration::from_millis(u64::from(heartbeat_ms.max(1)));
        let silent = faults.stall_heartbeat;
        std::thread::spawn(move || {
            let seq = AtomicU64::new(0);
            while running.load(Ordering::SeqCst) {
                std::thread::sleep(beat);
                if silent || !running.load(Ordering::SeqCst) {
                    continue;
                }
                let msg = Message::Heartbeat {
                    task_id: current_task.load(Ordering::SeqCst),
                    seq: seq.fetch_add(1, Ordering::SeqCst),
                };
                if send(&writer, &msg).is_err() {
                    break;
                }
            }
        })
    };

    // Frame pump: a reader thread feeding a channel, so the assign loop
    // can poll for a mid-task Truncate without blocking the extraction.
    // The pump forwards its terminal error (including clean EOF) as the
    // last channel item and exits.
    let (tx, rx) = std::sync::mpsc::channel::<Result<Message>>();
    let pump = {
        let mut pump_stream = stream.try_clone()?;
        std::thread::spawn(move || loop {
            match wire::read_frame(&mut pump_stream) {
                Ok(msg) => {
                    if tx.send(Ok(msg)).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    tx.send(Err(e)).ok();
                    return;
                }
            }
        })
    };

    let session = Session {
        writer: &writer,
        rx: &rx,
        pipeline: &pipeline,
        current_task: &current_task,
        faults,
        heartbeat_ms,
        registry: &registry,
    };
    let result = session.assign_loop(&mut reader);
    running.store(false, Ordering::SeqCst);
    stream.shutdown(std::net::Shutdown::Both).ok();
    let _ = ticker.join();
    let _ = pump.join();
    result
}

/// What a mid-task channel poll asked the task loop to do.
enum TaskControl {
    /// Keep going (possibly with a shortened end).
    Continue,
    /// The session is over; stop and bubble the result up.
    Stop(Result<()>),
}

struct Session<'a> {
    writer: &'a Arc<Mutex<TcpStream>>,
    rx: &'a Receiver<Result<Message>>,
    pipeline: &'a ivnt_core::Pipeline,
    current_task: &'a Arc<AtomicU32>,
    faults: WorkerFaults,
    heartbeat_ms: u32,
    registry: &'a Arc<ivnt_obs::Registry>,
}

impl Session<'_> {
    /// The assign/result loop — the worker's steady state.
    fn assign_loop(
        mut self,
        reader: &mut ivnt_store::StoreReader<std::io::BufReader<std::fs::File>>,
    ) -> Result<()> {
        loop {
            // A dropped channel means the pump thread is gone without a
            // terminal error — treat like a vanished coordinator.
            let Ok(incoming) = self.rx.recv() else {
                return Ok(());
            };
            let task = match incoming {
                Ok(Message::Assign { task }) => task,
                Ok(Message::Shutdown) => return Ok(()),
                Ok(Message::MetricsRequest) => match self.send_metrics() {
                    Ok(()) => continue,
                    Err(Error::Io(e)) if is_disconnect(&e) => return Ok(()),
                    Err(e) => return Err(e),
                },
                // A Truncate that raced the task's completion: the result
                // is already on the wire, nothing to stop.
                Ok(Message::Truncate { .. }) => continue,
                // A coordinator that vanishes between frames ends the
                // session without ceremony; that is not a worker failure.
                // The close can surface as a clean EOF or — when the
                // coordinator's socket still held an unread late
                // heartbeat, which makes the kernel answer with RST — as
                // a reset.
                Err(Error::Truncated(_)) => return Ok(()),
                Err(Error::Io(e)) if is_disconnect(&e) => return Ok(()),
                Ok(other) => {
                    return Err(Error::Protocol(format!("expected Assign, got {other:?}")))
                }
                Err(e) => return Err(e),
            };
            self.current_task.store(task.task_id, Ordering::SeqCst);

            if self.faults.delayed() {
                // Give the assignment time to be truly in-flight (at
                // least one heartbeat observed with the task running)
                // before the fault fires — that is the window retry must
                // survive.
                std::thread::sleep(Duration::from_millis(
                    u64::from(self.heartbeat_ms.max(1)) * 2,
                ));
            }
            if self.faults.kill_mid_task {
                return Err(Error::Job("fault injection: killed mid-task".into()));
            }
            if self.faults.stall_heartbeat {
                // Sit silent long enough that any reasonable liveness
                // timeout (a small multiple of the heartbeat) must fire.
                std::thread::sleep(Duration::from_millis(
                    u64::from(self.heartbeat_ms.max(1)) * 20,
                ));
                return Err(Error::Job("fault injection: stalled heartbeat".into()));
            }

            match self.run_task(reader, task) {
                TaskControl::Continue => {}
                TaskControl::Stop(result) => return result,
            }
            self.current_task.store(IDLE_TASK, Ordering::SeqCst);
        }
    }

    /// Per-group extraction streamed as compressed
    /// [`Message::PartialResult`] frames, a truncate poll between
    /// groups, and a closing [`Message::TaskDone`].
    fn run_task(
        &mut self,
        reader: &mut ivnt_store::StoreReader<std::io::BufReader<std::fs::File>>,
        task: crate::plan::ShardTask,
    ) -> TaskControl {
        let t_task = std::time::Instant::now();
        let mut end = task.group_end;
        let mut group = task.group_start;
        let mut seq: u32 = 0;
        while group < end {
            match self.poll_control(task.task_id, group, &mut end) {
                TaskControl::Continue => {}
                stop => return stop,
            }
            if self.faults.slow_task {
                std::thread::sleep(Duration::from_millis(
                    u64::from(self.heartbeat_ms.max(1)) * 3,
                ));
            }
            let batches = match self
                .pipeline
                .session(RunOptions::store_shard(reader, group..group + 1))
                .extract()
            {
                Ok(ex) => ex.frame.into_partitions(),
                Err(e) => {
                    self.registry
                        .add("cluster_tasks_total{result=\"error\"}", 1);
                    return self.finish_send(&Message::TaskError {
                        task_id: task.task_id,
                        message: e.to_string(),
                    });
                }
            };
            let raw_bytes: u64 = batches.iter().map(encoded_len_raw).sum();
            let msg = Message::PartialResult {
                task_id: task.task_id,
                seq,
                group,
                raw_bytes,
                batches: batches.iter().map(encode_batch_compressed).collect(),
            };
            let sent = if self.faults.corrupt_result {
                self.faults.corrupt_result = false;
                self.send_corrupted(&msg)
            } else {
                send(self.writer, &msg)
            };
            match self.map_send(sent) {
                TaskControl::Continue => {}
                stop => return stop,
            }
            seq += 1;
            group += 1;
        }
        self.registry.add("cluster_tasks_total{result=\"ok\"}", 1);
        self.registry.observe(
            "cluster_task_seconds",
            ivnt_obs::SECONDS_BUCKETS,
            t_task.elapsed().as_secs_f64(),
        );
        self.finish_send(&Message::TaskDone {
            task_id: task.task_id,
            parts: seq,
            group_end: end,
        })
    }

    /// Drains control frames that arrived mid-task. A Truncate for the
    /// running task shortens `end` — never below `group + 1`, the group
    /// about to be emitted, so already-shipped partials stay covered —
    /// and is acknowledged with the actual stopping point.
    fn poll_control(&mut self, task_id: u32, group: u32, end: &mut u32) -> TaskControl {
        loop {
            match self.rx.try_recv() {
                Ok(Ok(Message::Truncate {
                    task_id: t,
                    group_end,
                })) if t == task_id => {
                    let actual = group_end.clamp(group + 1, *end);
                    if actual < *end {
                        *end = actual;
                    }
                    let sent = send(
                        self.writer,
                        &Message::Truncated {
                            task_id,
                            group_end: *end,
                        },
                    );
                    match self.map_send(sent) {
                        TaskControl::Continue => {}
                        stop => return stop,
                    }
                }
                // A stale Truncate for some earlier task: ignore.
                Ok(Ok(Message::Truncate { .. })) => {}
                Ok(Ok(Message::Shutdown)) => return TaskControl::Stop(Ok(())),
                Ok(Ok(Message::MetricsRequest)) => {
                    let sent = self.send_metrics();
                    match self.map_send(sent) {
                        TaskControl::Continue => {}
                        stop => return stop,
                    }
                }
                Ok(Ok(other)) => {
                    return TaskControl::Stop(Err(Error::Protocol(format!(
                        "unexpected mid-task message {other:?}"
                    ))))
                }
                Ok(Err(Error::Truncated(_))) => return TaskControl::Stop(Ok(())),
                Ok(Err(Error::Io(e))) if is_disconnect(&e) => return TaskControl::Stop(Ok(())),
                Ok(Err(e)) => return TaskControl::Stop(Err(e)),
                Err(TryRecvError::Empty) => return TaskControl::Continue,
                Err(TryRecvError::Disconnected) => return TaskControl::Stop(Ok(())),
            }
        }
    }

    fn send_metrics(&self) -> Result<()> {
        send(
            self.writer,
            &Message::Metrics {
                snapshot: self.registry.snapshot(),
            },
        )
    }

    /// Ships `msg` with one payload byte flipped; the length prefix
    /// stays honest so the coordinator reads a full frame and must fail
    /// the checksum.
    fn send_corrupted(&self, msg: &Message) -> Result<()> {
        let mut frame = wire::encode_frame(msg);
        frame[4] ^= 0xFF;
        let mut w = self.writer.lock().expect("writer mutex");
        std::io::Write::write_all(&mut *w, &frame)?;
        std::io::Write::flush(&mut *w)?;
        Ok(())
    }

    /// Folds a send result into task control: a hung-up coordinator may
    /// already have what it needs (a retried task that finished
    /// elsewhere) — that ends the session cleanly, not as a failure.
    fn map_send(&self, sent: Result<()>) -> TaskControl {
        match sent {
            Ok(()) => TaskControl::Continue,
            Err(Error::Io(e)) if is_disconnect(&e) => TaskControl::Stop(Ok(())),
            Err(e) => TaskControl::Stop(Err(e)),
        }
    }

    /// [`Session::map_send`], for a task's closing frame.
    fn finish_send(&self, msg: &Message) -> TaskControl {
        let sent = send(self.writer, msg);
        self.map_send(sent)
    }
}

/// Whether an I/O error means the peer hung up (as opposed to a local
/// or transport fault worth reporting).
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
    )
}

fn send(writer: &Arc<Mutex<TcpStream>>, msg: &Message) -> Result<()> {
    let mut w = writer.lock().expect("writer mutex");
    wire::write_frame(&mut *w, msg)
}
