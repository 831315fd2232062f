//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into the workspace crates (prepare, execute and its sink,
//! assemble, serve/work, estimate). Each span has a name, start, end,
//! parent span and the campaign it belongs to; spans stay in memory and
//! are written out as JSONL once the run is over. A disabled recorder
//! costs one branch per call, so the untraced run stays untraced.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Campaign the span belongs to (0 outside any campaign).
    pub campaign: u64,
    pub name: &'static str,
    /// Application (or worker) the span concerns, may be empty.
    pub label: String,
    /// Small per-thread number of the thread that closed the span.
    pub thread: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// A span that has been opened but not yet closed.
pub struct Open {
    pub id: u64,
    parent: u64,
    campaign: u64,
    name: &'static str,
    label: String,
    start: Option<Instant>,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// A small, stable number for the calling thread (spans and sink
/// arrivals are grouped by it).
pub fn thread_no() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NO: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NO.with(|n| *n)
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A fresh id (used for campaign ids too).
    pub fn fresh_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn open(&self, name: &'static str, parent: u64, campaign: u64, label: &str) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent,
                campaign,
                name,
                label: String::new(),
                start: None,
            };
        }
        Open {
            id: self.fresh_id(),
            parent,
            campaign,
            name,
            label: label.to_string(),
            start: Some(Instant::now()),
        }
    }

    pub fn close(&self, o: Open) {
        let Some(start) = o.start else { return };
        let end = Instant::now();
        let span = Span {
            id: o.id,
            parent: o.parent,
            campaign: o.campaign,
            name: o.name,
            label: o.label,
            thread: thread_no(),
            start_us: self.micros(start),
            end_us: self.micros(end),
        };
        self.done.lock().expect("span list lock").push(span);
    }

    /// Run `f` inside a span; `f` gets the span's id (0 when disabled).
    pub fn within<T>(
        &self,
        name: &'static str,
        parent: u64,
        campaign: u64,
        label: &str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let o = self.open(name, parent, campaign, label);
        let out = f(o.id);
        self.close(o);
        out
    }

    fn micros(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_nanos() as f64 / 1e3
    }

    /// Every closed span, ordered by start time.
    pub fn finished(&self) -> Vec<Span> {
        let mut v = self.done.lock().expect("span list lock").clone();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        v
    }

    /// Write every closed span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.finished() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"campaign\":{},\"name\":\"{}\",\"label\":\"{}\",\
                 \"thread\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.parent, s.campaign, s.name, s.label, s.thread, s.start_us, s.end_us
            )?;
        }
        w.flush()
    }
}

/// Self time summed per span name: each span's duration minus the part
/// of it that the union of its children's intervals covers.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut kids_of: std::collections::HashMap<u64, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for c in spans.iter().filter(|c| c.parent != 0) {
        kids_of
            .entry(c.parent)
            .or_default()
            .push((c.start_us, c.end_us));
    }
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let mut kids: Vec<(f64, f64)> = kids_of
            .get(&s.id)
            .map(|v| {
                v.iter()
                    .map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us)))
                    .filter(|(a, b)| b > a)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Union of the child intervals.
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let self_s = ((s.end_us - s.start_us) - covered).max(0.0) / 1e6;
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += self_s,
            None => out.push((s.name, self_s)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let sp = Spans::new(false);
        let v = sp.within("x", 0, 0, "a", |id| id);
        assert_eq!(v, 0);
        assert!(sp.finished().is_empty());
    }

    #[test]
    fn children_carry_their_parent_and_campaign() {
        let sp = Spans::new(true);
        let c = sp.fresh_id();
        sp.within("campaign", 0, c, "VA", |root| {
            sp.within("prepare", root, c, "VA", |_| ());
            sp.within("execute", root, c, "VA", |_| ());
        });
        let v = sp.finished();
        assert_eq!(v.len(), 3);
        let root = v.iter().find(|s| s.name == "campaign").unwrap();
        for s in v.iter().filter(|s| s.name != "campaign") {
            assert_eq!(s.parent, root.id);
            assert_eq!(s.campaign, c);
            assert!(s.start_us >= root.start_us && s.end_us <= root.end_us);
        }
        let selfs = self_time_by_name(&v);
        let root_self = selfs.iter().find(|(n, _)| *n == "campaign").unwrap().1;
        assert!(root_self <= root.dur_s());
    }
}
