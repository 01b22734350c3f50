//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around every public call it makes into a
//! layer, and [`CplaSpans`] turns the engine's [`StageObserver`]
//! callbacks into round, stage and leaf spans beneath the `cpla.run`
//! span. Spans stay in memory until the run ends; self time is a span's
//! duration minus the part of it its children cover.

use std::time::Instant;

use flow::{LeafSpan, RoundSnapshot, Stage, StageObserver};

use crate::json::Value;

/// One timed interval, in seconds since the trace's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A span tree under construction: closed spans plus the stack of open
/// ones (the innermost open span parents the next one opened).
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let start = self.now();
        self.open_at(name, start)
    }

    fn open_at(&mut self, name: impl Into<String>, start: f64) -> usize {
        let id = self.push(name, start, start, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Closes the innermost open span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        self.close_at(id, end);
    }

    fn close_at(&mut self, id: usize, end: f64) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end = end;
    }

    /// Records an already-finished span.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur() - covered
            })
            .collect()
    }

    /// Summed self time of every span named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Appends the spans as JSON lines (`id`, `name`, `start`, `end`,
    /// `parent`, `self`), tagging each with `pass`.
    pub fn write_jsonl(&self, pass: usize, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or(Value::Null, |p| Value::Num(p as f64));
            let rec = Value::obj([
                ("pass", Value::Num(pass as f64)),
                ("id", Value::Num(id as f64)),
                ("name", Value::str(s.name.as_str())),
                ("start", Value::Num(s.start)),
                ("end", Value::Num(s.end)),
                ("parent", parent),
                ("self", Value::Num(self_s)),
            ]);
            writeln!(out, "{}", rec.render())?;
        }
        Ok(())
    }
}

/// Turns CPLA's stage callbacks into `cpla.round`, `cpla.<stage>` and
/// `cpla.<stage>.leaf` spans under the innermost open span, and keeps
/// the Solve leaves for the leaf statistics and the replay guard.
pub struct CplaSpans<'a> {
    trace: &'a mut Trace,
    round: Option<usize>,
    stage: Option<(usize, f64)>,
    pub solve_leaves: Vec<LeafSpan>,
}

impl<'a> CplaSpans<'a> {
    pub fn new(trace: &'a mut Trace) -> CplaSpans<'a> {
        CplaSpans {
            trace,
            round: None,
            stage: None,
            solve_leaves: Vec::new(),
        }
    }
}

impl StageObserver for CplaSpans<'_> {
    fn on_stage_start(&mut self, _round: usize, stage: Stage) {
        if self.round.is_none() {
            self.round = Some(self.trace.open("cpla.round"));
        }
        let start = self.trace.now();
        let id = self.trace.open_at(format!("cpla.{}", stage.name()), start);
        self.stage = Some((id, start));
    }

    fn on_leaf(&mut self, leaf: &LeafSpan) {
        if let Some((id, start)) = self.stage {
            let a = start + leaf.start_secs;
            self.trace.push(
                format!("cpla.{}.leaf", leaf.stage.name()),
                a,
                a + leaf.dur_secs,
                Some(id),
            );
        }
        if leaf.stage == Stage::Solve {
            self.solve_leaves.push(*leaf);
        }
    }

    /// The stage ends where the engine's own clock says it did, so
    /// observer work between the stage body and this callback (leaf
    /// delivery) falls outside the stage, into the round's self time.
    fn on_stage_end(&mut self, _round: usize, _stage: Stage, seconds: f64) {
        if let Some((id, start)) = self.stage.take() {
            self.trace.close_at(id, start + seconds);
        }
    }

    fn on_round_end(&mut self, _snapshot: &RoundSnapshot) {
        if let Some(id) = self.round.take() {
            self.trace.close(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(Instant::now());
        let root = t.push("root", 0.0, 10.0, None);
        // Overlapping children (parallel leaves) count once; a child
        // running past its parent's end is clipped.
        t.push("a", 1.0, 4.0, Some(root));
        t.push("b", 3.0, 5.0, Some(root));
        t.push("c", 8.0, 12.0, Some(root));
        let selfs = t.self_times();
        assert!((selfs[root] - (10.0 - 4.0 - 2.0)).abs() < 1e-12);
        assert!((t.self_total("a") - 3.0).abs() < 1e-12);
        assert!((t.total("b") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn open_spans_nest_under_the_innermost() {
        let mut t = Trace::new(Instant::now());
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.close(inner);
        t.close(outer);
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert!(t.spans()[outer].end >= t.spans()[inner].end);
        let mut buf = Vec::new();
        t.write_jsonl(0, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::parse(line).unwrap();
            assert!(v.get("self").and_then(Value::as_num).is_some());
        }
    }
}
