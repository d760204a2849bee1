//! `live_append`: replay one journey through `ivnt_stream::ingest`
//! (`SimulatorSource` → `AppendWriter`, default flush policy) and seal it,
//! then follow the sealed file with `StoreFollower` into a
//! `StreamingSession` and close it. Its traced run also measures, beside
//! the operation, the in-memory front half (`trace_to_frame` and the
//! interpret kernel) on the same journey and domain.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use ivnt_core::interpret::extract_signals;
use ivnt_core::pipeline::RunOptions;
use ivnt_core::tabular::trace_to_frame;
use ivnt_core::Pipeline;
use ivnt_simulator::trace::Trace;
use ivnt_store::{AppendOptions, AppendWriter, StoreFollower, StoreReader};
use ivnt_stream::{
    flatten_reduced, ingest, summarize_batch, DeltaRow, FrameSource, IngestOptions, IngestStats,
    SignalSummary, SimulatorSource, SourceEvent, StopFlag, StreamOptions, StreamingSession,
};

use super::{scaled, Deferred, Input, Layers, Workload};
use crate::compose::{frame_fingerprint, Fingerprint};
use crate::data;
use crate::metrics::ratio;
use crate::spans::Recorder;
use crate::Result;

pub struct LiveAppend {
    trace: Trace,
    pipeline: Pipeline,
    path: PathBuf,
    /// Second file for the side-composed write path.
    side_path: PathBuf,
    reference: Fingerprint,
    /// The in-memory session's `K_s` on the journey (checks the side
    /// measurement of the front half).
    ks_reference: Fingerprint,
    input: Input,
    generate_secs: f64,
}

/// Per-signal summaries and reduced rows, in summary order.
fn stream_fingerprint(
    summaries: &[SignalSummary],
    rows: &HashMap<String, Vec<DeltaRow>>,
) -> Fingerprint {
    summaries
        .iter()
        .map(|s| {
            let r = rows.get(&s.signal).map_or(&[][..], Vec::as_slice);
            format!("{s:?} {r:?}").into_bytes()
        })
        .collect()
}

/// What one pass of the follower through the streaming session produced.
struct Followed {
    summaries: Vec<SignalSummary>,
    rows: HashMap<String, Vec<DeltaRow>>,
    peak_buffered_rows: usize,
}

impl LiveAppend {
    pub fn setup(seed: u64, scale: f64, dir: &std::path::Path) -> Result<LiveAppend> {
        let t = Instant::now();
        let data = ivnt_bench::vehicle_journey(scaled(120_000, scale), seed)?;
        let generate_secs = t.elapsed().as_secs_f64();
        let signals = ivnt_bench::select_signals_for_fraction(&data, 9, 0.027);
        let pipeline = ivnt_bench::domain_pipeline(&data, &signals)?;
        // Oracle: batch `extract_reduced` over the whole journey.
        let batch = pipeline
            .session(RunOptions::trace(&data.trace))
            .extract_reduced()?;
        let summaries: Vec<SignalSummary> = batch
            .iter()
            .map(|(reduced, dedup, rows)| summarize_batch(reduced, dedup, *rows))
            .collect();
        let rows = batch
            .iter()
            .map(|(reduced, _, _)| Ok((reduced.signal.clone(), flatten_reduced(reduced)?)))
            .collect::<Result<HashMap<_, _>>>()?;
        let ks_reference = frame_fingerprint(
            &pipeline
                .session(RunOptions::trace(&data.trace))
                .extract()?
                .frame,
        );
        let input = Input {
            rows: data.trace.len() as u64,
            bytes: data::trace_bytes(&data),
        };
        Ok(LiveAppend {
            trace: data.trace,
            pipeline,
            path: dir.join("live_append.ivns"),
            side_path: dir.join("live_append_side.ivns"),
            reference: stream_fingerprint(&summaries, &rows),
            ks_reference,
            input,
            generate_secs,
        })
    }

    fn ingest(&self) -> Result<IngestStats> {
        let writer = AppendWriter::create(&self.path, AppendOptions::default())?;
        let (_, stats) = ingest(
            SimulatorSource::new(&self.trace),
            writer,
            &IngestOptions::default(),
            &StopFlag::new(),
        )?;
        if !stats.sealed || stats.frames != self.input.rows {
            return Err(format!(
                "ingest wrote {} of {} frames (sealed: {})",
                stats.frames, self.input.rows, stats.sealed
            )
            .into());
        }
        Ok(stats)
    }

    fn follow(&self) -> Result<Followed> {
        let mut follower = StoreFollower::open(&self.path)?;
        let mut session = StreamingSession::new(&self.pipeline, StreamOptions::default())?;
        let mut rows: HashMap<String, Vec<DeltaRow>> = HashMap::new();
        loop {
            let batch = follower.poll()?;
            if batch.groups.is_empty() && !batch.sealed {
                return Err("followed store ended without a seal".into());
            }
            for group in &batch.groups {
                for delta in session.push_records(&group.records)? {
                    rows.entry(delta.signal).or_default().extend(delta.rows);
                }
            }
            if batch.sealed {
                break;
            }
        }
        let peak_buffered_rows = session.peak_buffered_rows();
        let close = session.close()?;
        for delta in close.deltas {
            rows.entry(delta.signal).or_default().extend(delta.rows);
        }
        Ok(Followed {
            summaries: close.summaries,
            rows,
            peak_buffered_rows,
        })
    }
}

impl Workload for LiveAppend {
    fn input(&self) -> Input {
        self.input
    }

    fn generate_secs(&self) -> f64 {
        self.generate_secs
    }

    fn tail_percentile(&self) -> f64 {
        93.0
    }

    fn run(&mut self) -> Result<Deferred> {
        self.ingest()?;
        let f = self.follow()?;
        Ok(Box::new(move || {
            Ok(stream_fingerprint(&f.summaries, &f.rows))
        }))
    }

    fn reference(&self) -> &Fingerprint {
        &self.reference
    }

    fn run_traced(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Result<Deferred> {
        let stats = rec.span("stream.ingest", |rec| -> Result<IngestStats> {
            let stats = self.ingest()?;
            for secs in &stats.flush_seconds {
                rec.child("store.flush", *secs);
            }
            Ok(stats)
        })?;
        let f = rec.span("stream.session", |_| self.follow())?;
        layers.insert("stream.backpressure_waits", stats.backpressure_waits as f64);
        layers.insert("stream.peak_queue_depth", stats.peak_queue_depth as f64);
        layers.insert("store.flushes", stats.flush_seconds.len() as f64);
        layers.insert(
            "store.bytes_per_row",
            ratio(stats.bytes as f64, stats.frames as f64),
        );
        layers.insert("stream.peak_buffered_rows", f.peak_buffered_rows as f64);
        Ok(Box::new(move || {
            Ok(stream_fingerprint(&f.summaries, &f.rows))
        }))
    }

    /// Two layers the operation's entry points hide, each checked:
    ///
    /// * the in-memory front half a `session.run()` on this journey takes:
    ///   `trace_to_frame` (freeing its frame included) and the interpret
    ///   kernel, whose `K_s` must equal the session's;
    /// * the write path composed from `AppendWriter` calls, to time the
    ///   seal that `ingest` performs out of sight; the sealed file must
    ///   read back every frame.
    fn run_side(&mut self, layers: &mut Layers) -> Result<()> {
        let t = Instant::now();
        let raw = trace_to_frame(&self.trace, self.pipeline.profile().partitions)?;
        let mut convert = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let ks = extract_signals(&raw, self.pipeline.u_comb())?;
        let kernel = t.elapsed().as_secs_f64();
        let (rows_in, rows_out) = (raw.num_rows() as f64, ks.num_rows() as f64);
        let t = Instant::now();
        drop(raw);
        convert += t.elapsed().as_secs_f64();
        if frame_fingerprint(&ks) != self.ks_reference {
            return Err("in-memory extraction diverged from the session's".into());
        }
        layers.insert("tabular.convert_ms", convert * 1e3);
        layers.insert("interpret.kernel_ms", kernel * 1e3);
        layers.insert("interpret.rows_in", rows_in);
        layers.insert("interpret.rows_out", rows_out);
        layers.insert("interpret.admit_ratio", ratio(rows_out, rows_in));

        let mut writer = AppendWriter::create(&self.side_path, AppendOptions::default())?;
        let mut source = SimulatorSource::new(&self.trace);
        while let SourceEvent::Frame(record) = source.next_event()? {
            writer.append(&record)?;
        }
        writer.flush()?;
        let t = Instant::now();
        writer.seal()?;
        let seal_ms = t.elapsed().as_secs_f64() * 1e3;
        let rows = StoreReader::open(&self.side_path)?.footer().rows;
        if rows != self.input.rows {
            return Err(format!("sealed store holds {rows} of {} rows", self.input.rows).into());
        }
        layers.insert("store.seal_ms", seal_ms);
        Ok(())
    }
}
