//! Expected simulation results: the output check every workload runs.
//!
//! `expected.json` (next to `Cargo.toml`) holds, for every identity any
//! seed can draw, the counters a model change would move: cycles,
//! instructions, L1D/L2 accesses and misses, assisted accesses, assist hits
//! and controller switches. It also holds exact (non-sampled)
//! `Scale::Large` results for the `sampled-large` jobs, the references of
//! the sampling-error metrics. Regenerate it with
//!
//! ```text
//! cargo run --release --manifest-path selbench/Cargo.toml -- --regen-expected
//! ```

use crate::jobs;
use selcache_core::json::Json;
use selcache_core::{JobEngine, SimJob, SimMode, SimResult};
use std::collections::HashMap;
use std::fmt::Write as _;

const SCHEMA: &str = "selbench-expected/1";
const TEXT: &str = include_str!("../expected.json");
const FIELDS: [&str; 9] = [
    "cycles",
    "instructions",
    "l1d_accesses",
    "l1d_misses",
    "l2_accesses",
    "l2_misses",
    "assisted_accesses",
    "assist_hits",
    "adapt_switches",
];

/// The checked counters of one result, in [`FIELDS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters(pub [u64; 9]);

impl Counters {
    pub fn of(r: &SimResult) -> Counters {
        let a = &r.mem.assist;
        Counters([
            r.cycles,
            r.instructions,
            r.mem.l1d.accesses,
            r.mem.l1d.misses,
            r.mem.l2.accesses,
            r.mem.l2.misses,
            a.assisted_accesses,
            a.bypass_buffer_hits + a.l1_victim_hits + a.l2_victim_hits + a.stream_hits,
            a.adapt_switches,
        ])
    }

    pub fn cycles(&self) -> u64 {
        self.0[0]
    }

    pub fn instructions(&self) -> u64 {
        self.0[1]
    }

    pub fn l1d_miss_pct(&self) -> f64 {
        pct(self.0[3], self.0[2])
    }

    pub fn l2_miss_pct(&self) -> f64 {
        pct(self.0[5], self.0[4])
    }

    fn cpi(&self) -> f64 {
        self.cycles() as f64 / self.instructions().max(1) as f64
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

pub struct Expected {
    results: HashMap<String, Counters>,
    large_exact: HashMap<String, Counters>,
}

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let doc = Json::parse(TEXT).map_err(|e| format!("expected.json: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("expected.json: schema is not {SCHEMA}"));
        }
        let table = |key: &str| -> Result<HashMap<String, Counters>, String> {
            let Some(Json::Obj(pairs)) = doc.get(key) else {
                return Err(format!("expected.json: missing {key:?}"));
            };
            let mut map = HashMap::with_capacity(pairs.len());
            for (id, row) in pairs {
                let vals = row.as_arr().ok_or_else(|| format!("expected.json: bad row {id}"))?;
                let mut c = [0u64; 9];
                if vals.len() != c.len() {
                    return Err(format!("expected.json: row {id} has {} fields", vals.len()));
                }
                for (slot, v) in c.iter_mut().zip(vals) {
                    *slot =
                        v.as_u64().ok_or_else(|| format!("expected.json: bad value in {id}"))?;
                }
                map.insert(id.clone(), Counters(c));
            }
            Ok(map)
        };
        Ok(Expected { results: table("results")?, large_exact: table("large_exact")? })
    }

    /// Checks a full engine result for `job`.
    pub fn check(&self, job: &SimJob, r: &SimResult) -> Result<(), String> {
        let id = job.job_id().to_string();
        if r.job_id.map(|j| j.to_string()) != Some(id.clone()) {
            return Err(format!("{}: result carries job id {:?}", jobs::label(job), r.job_id));
        }
        let want = self.results.get(&id).ok_or_else(|| format!("{id}: no expected result"))?;
        let got = Counters::of(r);
        if got != *want {
            return Err(format!(
                "{}: counters {:?}, expected {:?}",
                jobs::label(job),
                got.0,
                want.0
            ));
        }
        Ok(())
    }

    /// Checks the headline fields a `selcached` result line carries.
    pub fn check_line(
        &self,
        id: &str,
        cycles: u64,
        instructions: u64,
        l1: f64,
        l2: f64,
    ) -> Result<(), String> {
        let want = self.results.get(id).ok_or_else(|| format!("{id}: no expected result"))?;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        if cycles != want.cycles()
            || instructions != want.instructions()
            || !close(l1, want.l1d_miss_pct())
            || !close(l2, want.l2_miss_pct())
        {
            return Err(format!(
                "{id}: got cycles={cycles} instructions={instructions} l1={l1} l2={l2}, expected {:?}",
                want.0
            ));
        }
        Ok(())
    }

    /// Worst CPI error (%) and L1D miss-rate error (points) of sampled
    /// results against the exact `Scale::Large` references.
    pub fn sampling_errors(
        &self,
        jobs: &[SimJob],
        results: &[SimResult],
    ) -> Result<(f64, f64), String> {
        let mut worst = (0.0f64, 0.0f64);
        for (job, r) in jobs.iter().zip(results) {
            let exact_id = job.clone().with_mode(SimMode::Exact).job_id().to_string();
            let exact = self
                .large_exact
                .get(&exact_id)
                .ok_or_else(|| format!("{}: no exact reference", jobs::label(job)))?;
            let got = Counters::of(r);
            let cpi_err = (got.cpi() - exact.cpi()).abs() / exact.cpi() * 100.0;
            let l1_err = (got.l1d_miss_pct() - exact.l1d_miss_pct()).abs();
            worst = (worst.0.max(cpi_err), worst.1.max(l1_err));
        }
        Ok(worst)
    }
}

/// Recomputes every expected result with the current simulator and writes
/// `expected.json`.
pub fn regenerate(threads: usize) -> std::io::Result<()> {
    let engine = JobEngine::new(threads);
    let mut all: Vec<SimJob> = jobs::paper_suite();
    all.extend(jobs::sampled_large());
    all.extend(jobs::service_pool().into_iter().map(|e| e.job));
    eprintln!("simulating {} identities…", all.len());
    let results = engine.run(&all);
    let large: Vec<SimJob> =
        jobs::sampled_large().into_iter().map(|j| j.with_mode(SimMode::Exact)).collect();
    eprintln!("simulating {} exact Scale::Large references…", large.len());
    let large_results = engine.run(&large);

    let rows = |jobs: &[SimJob], results: &[SimResult]| {
        let mut rows: Vec<(String, Counters)> = jobs
            .iter()
            .zip(results)
            .map(|(j, r)| (j.job_id().to_string(), Counters::of(r)))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.dedup_by(|a, b| a.0 == b.0);
        let mut out = String::new();
        for (i, (id, c)) in rows.iter().enumerate() {
            let vals: Vec<String> = c.0.iter().map(u64::to_string).collect();
            let sep = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{id}\": [{}]{sep}", vals.join(", "));
        }
        out
    };
    let fields: Vec<String> = FIELDS.iter().map(|f| format!("\"{f}\"")).collect();
    let text = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"regenerate\": \"cargo run --release --manifest-path \
selbench/Cargo.toml -- --regen-expected\",\n  \"fields\": [{}],\n  \"results\": {{\n{}  }},\n  \
\"large_exact\": {{\n{}  }}\n}}\n",
        fields.join(", "),
        rows(&all, &results),
        rows(&large, &large_results)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    std::fs::write(path, text)?;
    eprintln!("wrote {path}");
    Ok(())
}
