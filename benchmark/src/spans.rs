//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark side around each call into a
//! module's public API: name, start, end, parent span and request id.
//! Nothing is recorded inside the crates. When disabled, [`Spans::timed`]
//! only reads the clock, which the untraced run needs anyway.

use serde::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The call it covers, e.g. `"ckks.FheSession::new"`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub req: Option<u64>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, returning its result and its wall seconds, and records a
    /// span named `name` around it when enabled.
    pub fn timed<R>(
        &self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        OPEN.with(|s| s.borrow_mut().pop());
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.done.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            req,
            start_ns: ns(t0),
            end_ns: ns(t1),
        });
        (r, (t1 - t0).as_secs_f64())
    }

    /// Every finished span, ordered by id.
    fn finished(&self) -> Vec<Span> {
        let mut v = self.done.lock().expect("span log poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// JSON export: one object per span, with its self time (duration
    /// minus the time its child spans cover).
    pub fn to_value(&self) -> Value {
        let spans = self.finished();
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let num = |v: u64| Value::Num(v as f64);
        Value::Arr(
            spans
                .iter()
                .map(|s| {
                    let dur = s.end_ns - s.start_ns;
                    let opt = |v: Option<u64>| v.map_or(Value::Null, num);
                    Value::Obj(vec![
                        ("id".into(), num(s.id)),
                        ("parent".into(), opt(s.parent)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("req".into(), opt(s.req)),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                        (
                            "self_ns".into(),
                            num(dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
