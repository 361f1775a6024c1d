//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its own calls into each layer's public functions,
//! kept in a `Vec` while the run lasts and written out when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so
/// the same code path runs untraced to measure the tracing overhead.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (the handle children name as
    /// their parent).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        self.spans[id].end_ns = self.now_ns().max(self.spans[id].start_ns + 1);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Per-name `(span count, total self time in ns)`. A span's self time is
/// its duration minus the part of it covered by its children (overlapping
/// children are merged first, and clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
            if b <= a {
                continue;
            }
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_synthetic_tree() {
        // request [0, 100): parse [10, 20), cache [20, 50) with a nested
        // probe [25, 35), and two overlapping children [60, 80) + [70, 90).
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("cache", 20, 50, Some(0)),
            span("probe", 25, 35, Some(2)),
            span("score", 60, 80, Some(0)),
            span("score", 70, 90, Some(0)),
        ];
        let st = self_times(&spans);
        // Children of request cover [10, 50) ∪ [60, 90) = 70ns.
        assert_eq!(st["request"], (1, 30));
        assert_eq!(st["parse"], (1, 10));
        assert_eq!(st["cache"], (1, 20));
        assert_eq!(st["probe"], (1, 10));
        assert_eq!(st["score"], (2, 40));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("outer", 10, 20, None), span("inner", 5, 25, Some(0))];
        let st = self_times(&spans);
        assert_eq!(st["outer"], (1, 0));
        assert_eq!(st["inner"], (1, 20));
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let mut off = Recorder::new(false);
        let id = off.open("request", None, 1);
        assert_eq!(off.time("work", Some(id), 1, || 5), 5);
        off.close(id);
        assert!(off.spans.is_empty());

        let mut r = Recorder::new(true);
        let root = r.open("request", None, 7);
        let v = r.time("work", Some(root), 7, || 41 + 1);
        r.close(root);
        assert_eq!(v, 42);
        assert_eq!(r.spans.len(), 2);
        assert!(r.spans.iter().all(|s| s.end_ns > s.start_ns && s.req == 7));
        assert!(r.spans[0].start_ns <= r.spans[1].start_ns);
        assert!(r.spans[1].end_ns <= r.spans[0].end_ns);
    }
}
