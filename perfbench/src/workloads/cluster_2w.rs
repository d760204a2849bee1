//! `cluster_2w`: `ivnt_cluster::run_job` of a SYN extraction job on 2
//! local worker subprocesses spawned once at set-up.

use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

use ivnt_cluster::{
    run_job, spawn_local_workers, ClusterConfig, JobSpec, LocalSpawnSpec, LocalWorkerHandle,
    WorkerServer, LISTEN_PREFIX,
};
use ivnt_core::pipeline::RunOptions;
use ivnt_core::Pipeline;
use ivnt_simulator::scenario::{self, DataSetSpec};
use ivnt_store::StoreReader;

use super::{scaled, vm_hwm_kib, Deferred, Input, Layers, Workload};
use crate::compose::{frame_fingerprint, Fingerprint};
use crate::data;
use crate::metrics::ratio;
use crate::spans::Recorder;
use crate::Result;

/// Worker subprocesses per job.
const WORKERS: usize = 2;

/// First argument that puts the benchmark binary into worker mode.
pub const WORKER_ARG: &str = "--cluster-worker";

/// Worker mode: bind an ephemeral loopback port, announce it on stdout
/// and serve jobs. Exits when the parent process goes away, so a parent
/// killed outright leaves no worker behind.
///
/// # Errors
///
/// Bind and serve failures.
pub fn worker_main() -> Result<()> {
    let server = WorkerServer::bind("127.0.0.1:0")?;
    println!("{LISTEN_PREFIX}{}", server.local_addr()?);
    std::io::stdout().flush()?;
    let parent = std::os::unix::process::parent_id();
    // Detached on purpose: it lives exactly as long as the worker process.
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(0);
        }
    });
    server.serve()?;
    Ok(())
}

pub struct Cluster2w {
    // Declared first so the workers are killed and reaped before anything
    // else is torn down.
    workers: Vec<LocalWorkerHandle>,
    addrs: Vec<String>,
    job: JobSpec,
    config: ClusterConfig,
    /// The single-process pipeline the job describes (oracle and the
    /// `cluster.single_process_ms` reference).
    pipeline: Pipeline,
    reference: Fingerprint,
    input: Input,
    generate_secs: f64,
    /// `cluster.job_ms` of the latest traced operation.
    last_job_ms: f64,
}

impl Cluster2w {
    pub fn setup(seed: u64, scale: f64, dir: &std::path::Path) -> Result<Cluster2w> {
        let rows = scaled(400_000, scale);
        let t = Instant::now();
        let data = scenario::generate(
            &DataSetSpec::syn()
                .with_seed(seed)
                .with_target_examples(rows),
        )?;
        let generate_secs = t.elapsed().as_secs_f64();
        let path = dir.join("cluster_2w.ivns");
        let bytes = data::write_store(&data, &path)?;
        let input = Input {
            rows: data.trace.len() as u64,
            bytes,
        };
        drop(data);

        // Workers rebuild the pipeline from (scenario, seed, rows), as
        // they would for any recording.
        let job = JobSpec::new("syn", path.display().to_string())
            .with_seed(seed)
            .with_examples(rows as u64);
        let pipeline = job.pipeline()?;
        let mut reader = StoreReader::open(&path)?;
        let reference = frame_fingerprint(
            &pipeline
                .session(RunOptions::store(&mut reader))
                .extract()?
                .frame,
        );

        let spec = LocalSpawnSpec {
            exe: std::env::current_exe()?,
            args: vec![WORKER_ARG.into()],
        };
        let workers = spawn_local_workers(&spec, WORKERS, &HashMap::new())?;
        let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
        Ok(Cluster2w {
            workers,
            addrs,
            job,
            config: ClusterConfig::default(),
            pipeline,
            reference,
            input,
            generate_secs,
            last_job_ms: 0.0,
        })
    }
}

impl Workload for Cluster2w {
    fn input(&self) -> Input {
        self.input
    }

    fn generate_secs(&self) -> f64 {
        self.generate_secs
    }

    fn tail_percentile(&self) -> f64 {
        85.0
    }

    fn run(&mut self) -> Result<Deferred> {
        let run = run_job(&self.job, &self.addrs, &self.config)?;
        Ok(Box::new(move || Ok(frame_fingerprint(&run.frame))))
    }

    fn reference(&self) -> &Fingerprint {
        &self.reference
    }

    fn run_traced(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Result<Deferred> {
        let t = Instant::now();
        let run = rec.span("cluster.job", |_| {
            run_job(&self.job, &self.addrs, &self.config)
        })?;
        self.last_job_ms = t.elapsed().as_secs_f64() * 1e3;
        let s = &run.stats;
        layers.insert(
            "cluster.wire_bytes_per_row",
            ratio(s.wire_result_bytes as f64, s.rows as f64),
        );
        layers.insert("cluster.compression_ratio", s.compression_ratio());
        layers.insert("cluster.partial_frames", s.partial_frames as f64);
        layers.insert("cluster.retries", s.retries as f64);
        layers.insert("cluster.steals", s.steals as f64);
        layers.insert("cluster.splits", s.splits as f64);
        layers.insert("cluster.workers_lost", s.workers_lost as f64);
        Ok(Box::new(move || Ok(frame_fingerprint(&run.frame))))
    }

    /// Single-process `Session::extract` of the same store, timed in the
    /// same run as the job it is compared with.
    fn run_side(&mut self, layers: &mut Layers) -> Result<()> {
        let t = Instant::now();
        let mut reader = StoreReader::open(std::path::Path::new(&self.job.store_path))?;
        let frame = self
            .pipeline
            .session(RunOptions::store(&mut reader))
            .extract()?
            .frame;
        let single_ms = t.elapsed().as_secs_f64() * 1e3;
        if frame_fingerprint(&frame) != self.reference {
            return Err("single-process extraction diverged from its reference".into());
        }
        layers.insert("cluster.single_process_ms", single_ms);
        layers.insert("cluster.overhead_ratio", ratio(self.last_job_ms, single_ms));
        Ok(())
    }

    /// The client plus both workers.
    fn peak_rss_kib(&self) -> Result<u64> {
        let mut kib = vm_hwm_kib("self")?;
        for w in &self.workers {
            kib += vm_hwm_kib(&w.pid().to_string())?;
        }
        Ok(kib)
    }
}
