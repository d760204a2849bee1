//! Output fingerprints, and the pipeline's back half re-composed from its
//! public layer calls for the traced run.

use ivnt_cluster::codec::encode_batch;
use ivnt_core::classify::classify;
use ivnt_core::dedup::{deduplicate, Dedup};
use ivnt_core::extend::extension_schema;
use ivnt_core::pipeline::{PipelineOutput, SignalOutput, StageTiming};
use ivnt_core::reduce::{apply_constraints, cluster_reduce, Reduction};
use ivnt_core::represent::{merge_results, state_representation};
use ivnt_core::split::split_by_signal;
use ivnt_core::{branch::process, Pipeline};
use ivnt_frame::frame::DataFrame;

use crate::metrics::ratio;
use crate::spans::Recorder;
use crate::workloads::Layers;
use crate::Result;

/// Bit-exact encoding of an output; two outputs are equal iff their
/// fingerprints are.
pub type Fingerprint = Vec<Vec<u8>>;

/// Every partition of `frame`, re-encoded.
pub fn frame_fingerprint(frame: &DataFrame) -> Fingerprint {
    frame.partitions().iter().map(encode_batch).collect()
}

/// Every output frame partition plus the per-signal metadata of a full
/// pipeline run. Timing is measurement, not output, and is left out.
pub fn output_fingerprint(output: &PipelineOutput) -> Fingerprint {
    let mut fp = Vec::new();
    for frame in [&output.extensions, &output.merged, &output.state] {
        fp.extend(frame_fingerprint(frame));
    }
    for s in &output.signals {
        fp.push(
            format!(
                "{} {:?} {} {:?} {:?} {} {}",
                s.signal,
                s.classification,
                s.representative_channel,
                s.corresponding_channels,
                s.mismatched_channels,
                s.rows_interpreted,
                s.rows_reduced
            )
            .into_bytes(),
        );
        fp.extend(frame_fingerprint(&s.frame));
    }
    fp
}

/// Row counts through the back half's filtering stages.
#[derive(Debug, Default, Clone, Copy)]
pub struct BackHalfCounts {
    /// Rows entering gateway dedup (all channel copies).
    pub dedup_in: u64,
    /// Representative rows dedup kept.
    pub dedup_kept: u64,
    /// Rows kept by the reduction.
    pub reduce_kept: u64,
}

impl BackHalfCounts {
    /// Records the keep ratios of dedup (representative rows over all
    /// channel copies) and of the reduction (over the representative).
    pub fn record(&self, layers: &mut Layers) {
        let (input, kept, reduced) = (
            self.dedup_in as f64,
            self.dedup_kept as f64,
            self.reduce_kept as f64,
        );
        layers.insert("dedup.keep_ratio", ratio(kept, input));
        layers.insert("reduce.keep_ratio", ratio(reduced, kept));
    }
}

/// Lines 7–29 of Algorithm 1 from an interpreted `K_s`, composed in
/// pipeline order from the public calls — `split_by_signal` →
/// `deduplicate` → `apply_constraints` → `classify` → `process` →
/// `merge_results` → `state_representation` — driven by the pipeline's
/// public profile and `u_comb()`. Signals run one after another, so each
/// span is that layer's busy time on one thread.
///
/// # Errors
///
/// Layer failures, and profiles with extension rules (not composed here).
pub fn back_half(
    pipeline: &Pipeline,
    ks: &DataFrame,
    rec: &mut Recorder,
    counts: &mut BackHalfCounts,
) -> Result<PipelineOutput> {
    let profile = pipeline.profile();
    if !profile.extensions.is_empty() {
        return Err("the composed back half does not run extension rules".into());
    }
    let rules = pipeline.u_comb().rules();
    let seqs = rec.span("split", |_| split_by_signal(ks))?;
    let mut signals = Vec::with_capacity(seqs.len());
    for seq in seqs {
        let dedup = rec.span("dedup", |_| -> Result<Dedup> {
            if profile.dedup {
                return Ok(deduplicate(&seq, pipeline.u_comb())?);
            }
            let channel = seq.channels()?.into_iter().next().unwrap_or_default();
            Ok(Dedup {
                representative: seq.clone(),
                representative_channel: channel,
                corresponding: Vec::new(),
                mismatched: Vec::new(),
            })
        })?;
        counts.dedup_in += seq.len() as u64;
        counts.dedup_kept += dedup.representative.len() as u64;
        let reduced = rec.span("reduce", |_| match &profile.reduction {
            Reduction::Constraints => {
                apply_constraints(&dedup.representative, &profile.constraints)
            }
            Reduction::Cluster { k, max_iterations } => {
                cluster_reduce(&dedup.representative, *k, *max_iterations)
            }
        })?;
        counts.reduce_kept += reduced.len() as u64;
        let classification = rec.span("classify", |_| {
            let comparable = rules
                .iter()
                .find(|r| r.signal == reduced.signal)
                .is_none_or(|r| r.info.comparable);
            classify(&reduced, comparable, &profile.classify)
        })?;
        let frame = rec.span("branch", |_| {
            let home = rules
                .iter()
                .find(|r| r.signal == reduced.signal && r.info.home_channel)
                .or_else(|| rules.iter().find(|r| r.signal == reduced.signal));
            process(
                &reduced,
                &classification,
                home.map(|r| r.as_ref()),
                &profile.branch,
            )
        })?;
        signals.push(SignalOutput {
            signal: reduced.signal.clone(),
            classification,
            representative_channel: dedup.representative_channel,
            corresponding_channels: dedup.corresponding,
            mismatched_channels: dedup.mismatched,
            rows_interpreted: dedup.representative.len(),
            rows_reduced: reduced.len(),
            frame,
        });
    }
    let extensions = DataFrame::empty(extension_schema());
    let merged = rec.span("represent.merge", |_| {
        merge_results(signals.iter().map(|s| &s.frame), &extensions)
    })?;
    let state = rec.span("represent.state", |_| state_representation(&merged))?;
    Ok(PipelineOutput {
        signals,
        extensions,
        merged,
        state,
        timing: StageTiming::default(),
    })
}
