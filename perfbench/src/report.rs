//! What a run produces: counts, metrics, the human-readable report, the
//! run record and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Tracer;
use crate::{guests, Options, Values, E2E_METRICS, LAYER_METRICS};

/// One named measurement with its unit and sample count, as the report
/// and the run record show it.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name (the workload's own name for it, e.g. `startup_ms.p95`).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from, where that applies.
    pub samples: Option<usize>,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (wrong output, trap, shed, timeout, miss).
    pub failed: u64,
    /// Failed operations whose output was wrong (false accept/reject,
    /// wrong checksum or result): `correct` is false when any occurred.
    pub wrong: u64,
    /// Failures by kind.
    pub failures: BTreeMap<&'static str, u64>,
    /// End-to-end metrics (tracing off).
    pub e2e: Values,
    /// Per-layer metrics (tracing on).
    pub layers: Values,
    /// Every named measurement, for the report and the run record.
    pub rows: Vec<Row>,
    /// Extra run-record entries: key and raw JSON value.
    pub record: Vec<(String, String)>,
    /// Spans of the traced operations.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Adds a row to the report.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.rows.push(Row {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Counts a failed operation of `kind`; `wrong` marks a wrong output.
    pub fn fail(&mut self, kind: &'static str, wrong: bool) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        *self.failures.entry(kind).or_default() += 1;
    }

    /// Records the set-up times: `setup_s` is their median.
    pub fn setup_times(&mut self, times: &[f64]) {
        let median = crate::stats::median(times);
        self.e2e.insert("setup_s".into(), median);
        self.detail("setup_s", median, "s", Some(times.len()));
        let each: Vec<String> = times.iter().map(f64::to_string).collect();
        self.note("setup_s_each", format!("[{}]", each.join(", ")));
    }

    /// Adds a run-record entry (`value` is raw JSON).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Failed operations over attempted ones.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The `(name, unit)` list the final line carries in this mode.
    #[must_use]
    pub fn metric_list(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            LAYER_METRICS
                .iter()
                .map(|(n, u)| ((*n).to_string(), *u))
                .chain(
                    guests::compute_programs()
                        .into_iter()
                        .map(|p| (format!("guest_ms.{p}"), "ms")),
                )
                .collect()
        } else {
            E2E_METRICS
                .iter()
                .map(|(n, u)| ((*n).to_string(), *u))
                .collect()
        }
    }

    /// The last line of standard output.
    #[must_use]
    pub fn result_json(&self, trace: bool) -> String {
        let values = if trace { &self.layers } else { &self.e2e };
        let mut metrics = String::new();
        for (i, (name, unit)) in Self::metric_list(trace).into_iter().enumerate() {
            let v = values.get(&name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed
        )
    }

    /// Human-readable lines printed before the final JSON line.
    #[must_use]
    pub fn report(&self, opts: &Options) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench {} seed {} seconds {} trace {}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        let _ = writeln!(
            out,
            "  attempted {} failed {} (failed_frac {:.6}) wrong {}",
            self.attempted,
            self.failed,
            self.failed_frac(),
            self.wrong
        );
        for (kind, n) in &self.failures {
            let _ = writeln!(out, "    failure {kind}: {n}");
        }
        for r in &self.rows {
            let samples = r.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<44} {:>14.4} {}{samples}",
                r.name, r.value, r.unit
            );
        }
        out
    }

    /// The run record: seed, host, limits and every row, as JSON.
    #[must_use]
    pub fn record_json(&self, opts: &Options) -> String {
        let host = watz_bench::host_info();
        let mut rows = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n    ");
            }
            let v = if r.value.is_finite() { r.value } else { 0.0 };
            let samples = r
                .samples
                .map_or_else(|| "null".to_string(), |n| n.to_string());
            let _ = write!(
                rows,
                "{{\"name\": \"{}\", \"value\": {v}, \"unit\": \"{}\", \"samples\": {samples}}}",
                r.name, r.unit
            );
        }
        let mut extra = String::new();
        for (k, v) in &self.record {
            let _ = write!(extra, ",\n  \"{k}\": {v}");
        }
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"nproc\": {},\n  \"host\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failed_frac\": {},\n  \"failures\": {{{}}}{extra},\n  \"rows\": [\n    {rows}\n  ]\n}}\n",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            opts.trace,
            crate::nproc(),
            host.json(),
            self.attempted,
            self.failed,
            self.failed_frac(),
            failures.join(", ")
        )
    }
}
