//! In-memory spans for the traced run.
//!
//! The harness opens a span around each call it makes into a layer's
//! public entry point. Boundary spans (a sweep scenario, a campaign, an
//! HTTP phase) are kept individually; hot-loop spans (`try_step`,
//! `on_completion`, `CampaignSim::step`) are only aggregated per name
//! into count, total and self time, so the trace stays small and cheap.
//! A span's self time is its duration minus the time its children
//! cover. Everything stays in memory until [`Tracer::write_jsonl`].
//!
//! A disabled tracer records nothing and [`Tracer::hot`] reduces to the
//! call itself, so untraced runs time the plain entry points.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A kept span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    /// Request id, for the service's per-request spans.
    pub req: Option<u64>,
}

/// Per-name totals over every span of that name, kept or hot.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, dur: u64, self_ns: u64) {
        self.count += 1;
        self.total_ns += dur;
        self.self_ns += self_ns;
    }
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
    keep: bool,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<Open>,
    kept: Vec<Span>,
    /// Per-name totals; a handful of names, so a scan beats a map.
    by_name: Vec<(&'static str, Agg)>,
    next_id: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            stack: Vec::new(),
            kept: Vec::new(),
            by_name: Vec::new(),
            next_id: 1,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a boundary span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        self.push(name, true);
    }

    /// Opens a hot-loop span: aggregated, never kept individually.
    pub fn open_hot(&mut self, name: &'static str) {
        self.push(name, false);
    }

    fn push(&mut self, name: &'static str, keep: bool) {
        if !self.on {
            return;
        }
        let id = if keep {
            self.next_id += 1;
            self.next_id - 1
        } else {
            0
        };
        self.stack.push(Open {
            id,
            name,
            start: Instant::now(),
            child_ns: 0,
            keep,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("close matches an open span");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let self_ns = dur.saturating_sub(open.child_ns);
        self.account(open.name, dur, self_ns);
        if open.keep {
            let parent = self.stack.iter().rev().find(|o| o.keep).map(|o| o.id);
            self.kept.push(Span {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
                self_ns,
                req: None,
            });
        }
    }

    /// Runs `f` inside a hot-loop leaf span (`f` cannot reach the
    /// tracer, so the span has no children).
    pub fn hot<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed().as_nanos() as u64;
        self.account(name, dur, dur);
        r
    }

    /// Attributes `ns` measured by the program itself (a campaign's
    /// `SchedProfile`) to a child `name` of the innermost open span.
    pub fn attribute(&mut self, name: &'static str, ns: u64) {
        if !self.on || ns == 0 {
            return;
        }
        self.account(name, ns, ns);
    }

    /// Records a finished span with explicit bounds (the service's open
    /// loop interleaves requests, so its spans do not nest on a stack).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        req: Option<u64>,
        self_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let dur = end.duration_since(start).as_nanos() as u64;
        self.agg(name).add(dur, self_ns);
        let id = self.next_id;
        self.next_id += 1;
        self.kept.push(Span {
            id,
            parent,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            self_ns,
            req,
        });
        id
    }

    fn account(&mut self, name: &'static str, dur: u64, self_ns: u64) {
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        self.agg(name).add(dur, self_ns);
    }

    fn agg(&mut self, name: &'static str) -> &mut Agg {
        let i = match self
            .by_name
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        {
            Some(i) => i,
            None => {
                self.by_name.push((name, Agg::default()));
                self.by_name.len() - 1
            }
        };
        &mut self.by_name[i].1
    }

    /// Per-name aggregates, by name.
    pub fn aggregates(&self) -> BTreeMap<&'static str, Agg> {
        self.by_name.iter().copied().collect()
    }

    /// The totals of `name` and of its sub-names (`name.<part>`).
    fn get(&self, name: &str) -> Agg {
        let mut sum = Agg::default();
        for (n, a) in &self.by_name {
            if n.strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            {
                sum.count += a.count;
                sum.total_ns += a.total_ns;
                sum.self_ns += a.self_ns;
            }
        }
        sum
    }

    /// Self time of spans named `name` or below it, nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.get(name).self_ns
    }

    /// Total (inclusive) time of spans named `name` or below it,
    /// nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.get(name).total_ns
    }

    /// Durations of the kept spans named `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.kept
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Writes every kept span, then one aggregate line per name.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"type\":\"span\",\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"req\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns,
                opt(s.req),
            )?;
        }
        for (name, a) in self.aggregates() {
            writeln!(
                out,
                "{{\"type\":\"aggregate\",\"workload\":\"{workload}\",\"name\":\"{name}\",\"count\":{},\
                 \"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            )?;
        }
        out.flush()
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open("outer");
        t.hot("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.attribute("measured", 1_000_000);
        t.close();
        let outer = t.aggregates()["outer"];
        let inner = t.aggregates()["inner"];
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns - 1_000_000);
        assert_eq!(t.durations("outer").len(), 1);
        assert!(t.durations("inner").is_empty(), "hot spans are not kept");
    }

    #[test]
    fn a_name_covers_its_sub_names() {
        let mut t = Tracer::new(true);
        t.attribute("wms.callback.TaskData", 3);
        t.attribute("wms.callback.Compute", 4);
        t.attribute("wms.callbacks", 100);
        assert_eq!(t.self_ns("wms.callback"), 7);
        assert_eq!(t.total_ns("wms.callback.Compute"), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("a");
        assert_eq!(t.hot("b", || 7), 7);
        t.close();
        assert!(t.aggregates().is_empty());
    }
}
