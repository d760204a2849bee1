//! Signal splitting (Algorithm 1, line 8).
//!
//! The interpreted table `K_s` is split into one time-ordered sequence per
//! signal type (`K_s^{s_id}` in the paper), since all further processing —
//! reduction, extension, classification, symbolization — is per signal.

use std::collections::HashMap;
use std::sync::Arc;

use ivnt_frame::prelude::*;

use crate::error::Result;
use crate::tabular::columns as c;

/// One signal type's time-ordered instance sequence.
#[derive(Debug, Clone)]
pub struct SignalSequence {
    /// Signal identifier.
    pub signal: String,
    /// Rows `(t, s_id, b_id, v_num, v_text)`, sorted by time.
    pub frame: DataFrame,
}

impl SignalSequence {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.frame.num_rows()
    }

    /// `true` when the sequence holds no instances.
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// Timestamps in seconds, in order.
    ///
    /// Reads the typed column slices directly — no per-cell `Value`
    /// boxing — since every branch kernel starts from this accessor.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn times(&self) -> Result<Vec<f64>> {
        let idx = self.frame.schema().index_of(c::T)?;
        let mut out = Vec::with_capacity(self.len());
        for batch in self.frame.partitions() {
            match batch.column(idx).as_float_slice() {
                Some(vals) => out.extend(vals.iter().map(|v| v.unwrap_or(f64::NAN))),
                None => out.extend(std::iter::repeat_n(f64::NAN, batch.num_rows())),
            }
        }
        Ok(out)
    }

    /// Numeric values in order (`None` where the instance is textual/null).
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn numeric_values(&self) -> Result<Vec<Option<f64>>> {
        let idx = self.frame.schema().index_of(c::VALUE_NUM)?;
        let mut out = Vec::with_capacity(self.len());
        for batch in self.frame.partitions() {
            match batch.column(idx).as_float_slice() {
                Some(vals) => out.extend_from_slice(vals),
                None => out.extend(std::iter::repeat_n(None, batch.num_rows())),
            }
        }
        Ok(out)
    }

    /// Textual values in order (`None` where the instance is numeric/null).
    ///
    /// Returns the column's shared `Arc<str>` cells, so downstream passes
    /// clone pointers, not string bytes.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn text_values(&self) -> Result<Vec<Option<Arc<str>>>> {
        let idx = self.frame.schema().index_of(c::VALUE_TEXT)?;
        let mut out = Vec::with_capacity(self.len());
        for batch in self.frame.partitions() {
            match batch.column(idx).as_str_slice() {
                Some(vals) => out.extend(vals.iter().cloned()),
                None => out.extend(std::iter::repeat_n(None, batch.num_rows())),
            }
        }
        Ok(out)
    }

    /// Per-row channel names, in order (`None` where the cell is null).
    ///
    /// Shares the column's `Arc<str>` cells like
    /// [`text_values`](SignalSequence::text_values); used by equivalence tests comparing
    /// streaming deltas against batch sequences row by row.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn bus_values(&self) -> Result<Vec<Option<Arc<str>>>> {
        let idx = self.frame.schema().index_of(c::BUS)?;
        let mut out = Vec::with_capacity(self.len());
        for batch in self.frame.partitions() {
            match batch.column(idx).as_str_slice() {
                Some(vals) => out.extend(vals.iter().cloned()),
                None => out.extend(std::iter::repeat_n(None, batch.num_rows())),
            }
        }
        Ok(out)
    }

    /// Distinct channels the sequence was observed on.
    ///
    /// # Errors
    ///
    /// Propagates tabular-engine failures.
    pub fn channels(&self) -> Result<Vec<String>> {
        let idx = self.frame.schema().index_of(c::BUS)?;
        let mut buses: Vec<&str> = Vec::new();
        for batch in self.frame.partitions() {
            if let Some(vals) = batch.column(idx).as_str_slice() {
                buses.extend(vals.iter().flatten().map(|s| s.as_ref() as &str));
            }
        }
        buses.sort_unstable();
        buses.dedup();
        Ok(buses.into_iter().map(str::to_string).collect())
    }
}

/// Splits `K_s` into per-signal sequences, each sorted by time.
///
/// Output is sorted by signal name, so iteration order is deterministic.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn split_by_signal(ks: &DataFrame) -> Result<Vec<SignalSequence>> {
    let schema = ks.schema().clone();
    let sig_idx = schema.index_of(c::SIGNAL)?;
    let t_idx = schema.index_of(c::T)?;

    // Single pass: bucket (partition, row) indices per signal, then gather
    // each signal's rows with typed takes (no per-cell boxing).
    let mut buckets: HashMap<Arc<str>, Vec<Vec<usize>>> = HashMap::new();
    let n_parts = ks.num_partitions();
    for (pi, batch) in ks.partitions().iter().enumerate() {
        let Some(names) = batch.column(sig_idx).as_str_slice() else {
            continue;
        };
        for (row, name) in names.iter().enumerate() {
            let Some(name) = name else { continue };
            buckets
                .entry(name.clone())
                .or_insert_with(|| vec![Vec::new(); n_parts])[pi]
                .push(row);
        }
    }

    let mut names: Vec<Arc<str>> = buckets.keys().cloned().collect();
    names.sort();
    let mut out: Vec<SignalSequence> = Vec::with_capacity(names.len());
    for name in names {
        let per_part = buckets.remove(&name).expect("bucket exists");
        let gathered: Vec<Batch> = per_part
            .iter()
            .enumerate()
            .filter(|(_, idx)| !idx.is_empty())
            .map(|(pi, idx)| ks.partitions()[pi].take(idx))
            .collect();
        let merged = if gathered.is_empty() {
            Batch::empty(schema.clone())
        } else {
            Batch::concat(&gathered)?
        };
        // Stable sort by time.
        let times = merged.column(t_idx).as_float_slice().unwrap_or(&[]);
        let mut order: Vec<usize> = (0..merged.num_rows()).collect();
        order.sort_by(|&a, &b| {
            let ta = times.get(a).copied().flatten().unwrap_or(f64::NAN);
            let tb = times.get(b).copied().flatten().unwrap_or(f64::NAN);
            ta.total_cmp(&tb)
        });
        let sorted = merged.take(&order);
        let frame = DataFrame::from_partitions(schema.clone(), vec![sorted])?;
        out.push(SignalSequence {
            signal: name.to_string(),
            frame,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::signal_schema;

    fn ks() -> DataFrame {
        DataFrame::from_rows(
            signal_schema(),
            vec![
                vec![
                    Value::Float(2.5),
                    Value::from("wpos"),
                    Value::from("FC"),
                    Value::Float(60.0),
                    Value::Null,
                ],
                vec![
                    Value::Float(2.0),
                    Value::from("wpos"),
                    Value::from("FC"),
                    Value::Float(45.0),
                    Value::Null,
                ],
                vec![
                    Value::Float(2.0),
                    Value::from("wvel"),
                    Value::from("FC"),
                    Value::Float(1.0),
                    Value::Null,
                ],
                vec![
                    Value::Float(2.1),
                    Value::from("belt"),
                    Value::from("BC"),
                    Value::Null,
                    Value::from("ON"),
                ],
            ],
        )
        .unwrap()
        .repartition(2)
        .unwrap()
    }

    #[test]
    fn splits_and_sorts() {
        let seqs = split_by_signal(&ks()).unwrap();
        assert_eq!(seqs.len(), 3);
        // Deterministic name order.
        let names: Vec<&str> = seqs.iter().map(|s| s.signal.as_str()).collect();
        assert_eq!(names, vec!["belt", "wpos", "wvel"]);
        // wpos sorted by time despite input order.
        let wpos = &seqs[1];
        assert_eq!(wpos.times().unwrap(), vec![2.0, 2.5]);
        assert_eq!(wpos.numeric_values().unwrap(), vec![Some(45.0), Some(60.0)]);
    }

    #[test]
    fn accessors() {
        let seqs = split_by_signal(&ks()).unwrap();
        let belt = &seqs[0];
        assert_eq!(belt.len(), 1);
        assert!(!belt.is_empty());
        assert_eq!(
            belt.text_values().unwrap(),
            vec![Some::<Arc<str>>("ON".into())]
        );
        assert_eq!(belt.numeric_values().unwrap(), vec![None]);
        assert_eq!(belt.channels().unwrap(), vec!["BC".to_string()]);
    }

    #[test]
    fn empty_input() {
        let empty = DataFrame::empty(signal_schema());
        assert!(split_by_signal(&empty).unwrap().is_empty());
    }
}
