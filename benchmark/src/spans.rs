//! In-memory span recorder for the traced run: name, start, end, parent
//! and workload id, written out once when the benchmark ends.

use serde::Value;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span stack. When built with [`Spans::off`] every call is a no-op, so
/// the untraced repetitions pay nothing for it.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn on(origin: Instant) -> Spans {
        Spans {
            origin,
            enabled: true,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn off() -> Spans {
        Spans {
            enabled: false,
            ..Spans::on(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        self.spans[id].end_ns = self.now_ns();
        self.open.retain(|&o| o != id);
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// host seconds it took (measured whether or not spans are recorded).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.exit(id);
        (out, secs)
    }

    /// Host seconds covered by top-level spans.
    pub fn covered_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn to_value(&self, workload: &str) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Object(vec![
                        ("id".into(), Value::UInt(id as u64)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("workload".into(), Value::Str(workload.into())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
