//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public API: the
//! layer name, its start and end (µs since the recorder was created), the
//! span that caused it, and the job it belongs to. Spans stay in memory and
//! are written out once, when the run ends.

use selcache_core::json::Json;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub job: Option<usize>,
}

pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    enabled: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Mutex::new(Vec::new()), enabled: true }
    }

    /// A recorder that records nothing and times nothing (every duration
    /// it returns is 0): the untraced side of the tracing-overhead pairs.
    pub fn disabled() -> Recorder {
        Recorder { enabled: false, ..Recorder::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&self, layer: &'static str, parent: Option<usize>, job: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span { layer, start_us, end_us: f64::NAN, parent, job });
        spans.len() - 1
    }

    /// Closes a span and returns its duration in ms.
    pub fn close(&self, id: usize) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let end_us = self.now_us();
        let mut spans = self.spans.lock().expect("span lock");
        spans[id].end_us = end_us;
        (end_us - spans[id].start_us) / 1e3
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in ms.
    pub fn time<R>(
        &self,
        layer: &'static str,
        parent: Option<usize>,
        job: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(layer, parent, job);
        let r = f();
        (r, self.close(id))
    }

    /// Total duration of every closed span of `layer`, in ms.
    pub fn total_ms(&self, layer: &str) -> f64 {
        let spans = self.spans.lock().expect("span lock");
        spans
            .iter()
            .filter(|s| s.layer == layer && s.end_us.is_finite())
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Writes every span as one JSON object per line, plus each span's self
    /// time (its duration minus the part its children cover).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span lock");
        let mut child_us = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let opt =
                |v: Option<usize>| v.map(|x| Json::UInt(x as u64)).unwrap_or(Json::Bool(false));
            let line = Json::obj([
                ("id", Json::UInt(i as u64)),
                ("layer", Json::str(s.layer)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                ("self_us", Json::Num(s.end_us - s.start_us - child_us[i])),
                ("parent", opt(s.parent)),
                ("job", opt(s.job)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
