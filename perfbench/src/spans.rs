//! Spans around the benchmark's own calls into the simulator.
//!
//! Each span is the envelope of one call across every rank that made
//! it: host and virtual start are the earliest entry, host and virtual
//! end the latest exit. Spans are kept in memory and written out as
//! JSON lines when the benchmark ends.

use std::cell::RefCell;
use std::future::Future;
use std::time::Instant;

use e10_bench::Json;

/// One recorded span.
pub struct Span {
    /// Identifier, unique within the log.
    pub id: u64,
    /// The span this one ran inside (`None` for a repetition).
    pub parent: Option<u64>,
    /// The call, e.g. `write_at_all`.
    pub name: &'static str,
    /// Host seconds since the log's epoch.
    pub host_start: f64,
    /// Host seconds since the log's epoch.
    pub host_end: f64,
    /// Virtual seconds (0 outside a simulation).
    pub virt_start: f64,
    /// Virtual seconds (0 outside a simulation).
    pub virt_end: f64,
    /// How many entries the envelope merged (ranks × calls).
    pub calls: u64,
}

impl Span {
    /// Host seconds from first entry to last exit.
    pub fn host_s(&self) -> f64 {
        self.host_end - self.host_start
    }
}

/// The in-memory span log of one benchmark process.
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// The repetition span calls are currently charged to.
    parent: RefCell<Option<u64>>,
}

fn virt_now() -> f64 {
    e10_simcore::executor::try_now().map_or(0.0, |t| t.as_secs_f64())
}

impl SpanLog {
    /// An empty log whose host clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            parent: RefCell::new(None),
        }
    }

    fn host_now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a repetition span; calls recorded until [`end_rep`] are its
    /// children. Returns its identifier.
    ///
    /// [`end_rep`]: SpanLog::end_rep
    pub fn begin_rep(&self, name: &'static str) -> u64 {
        let id = self.spans.borrow().len() as u64 + 1;
        let t = self.host_now();
        self.spans.borrow_mut().push(Span {
            id,
            parent: None,
            name,
            host_start: t,
            host_end: t,
            virt_start: 0.0,
            virt_end: 0.0,
            calls: 1,
        });
        *self.parent.borrow_mut() = Some(id);
        id
    }

    /// Close the repetition span `id`, stamping its virtual extent.
    pub fn end_rep(&self, id: u64, virt_end: f64) {
        let t = self.host_now();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[id as usize - 1];
        s.host_end = t;
        s.virt_end = virt_end;
        *self.parent.borrow_mut() = None;
    }

    /// Widen the envelope of call `name` under the current repetition
    /// (or start it).
    fn record(&self, name: &'static str, h0: f64, h1: f64, v0: f64, v1: f64) {
        let parent = *self.parent.borrow();
        let mut spans = self.spans.borrow_mut();
        if let Some(s) = spans
            .iter_mut()
            .rev()
            .take_while(|s| s.parent.is_some())
            .find(|s| s.name == name && s.parent == parent)
        {
            s.host_start = s.host_start.min(h0);
            s.host_end = s.host_end.max(h1);
            s.virt_start = s.virt_start.min(v0);
            s.virt_end = s.virt_end.max(v1);
            s.calls += 1;
            return;
        }
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            host_start: h0,
            host_end: h1,
            virt_start: v0,
            virt_end: v1,
            calls: 1,
        });
    }

    /// Run `f`, recording it as call `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (h0, v0) = (self.host_now(), virt_now());
        let out = f();
        self.record(name, h0, self.host_now(), v0, virt_now());
        out
    }

    /// Await `fut`, recording it as call `name`.
    pub async fn time_async<T>(&self, name: &'static str, fut: impl Future<Output = T>) -> T {
        let (h0, v0) = (self.host_now(), virt_now());
        let out = fut.await;
        self.record(name, h0, self.host_now(), v0, virt_now());
        out
    }

    /// Host seconds of `call` under the first repetition span named
    /// `rep` (0 if the call was never made).
    pub fn host_s(&self, rep: &str, call: &str) -> f64 {
        let spans = self.spans.borrow();
        let Some(rep_id) = spans
            .iter()
            .find(|s| s.parent.is_none() && s.name == rep)
            .map(|s| s.id)
        else {
            return 0.0;
        };
        spans
            .iter()
            .find(|s| s.parent == Some(rep_id) && s.name == call)
            .map_or(0.0, Span::host_s)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let doc = Json::obj([
                ("id", Json::U64(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::U64)),
                ("name", Json::str(s.name)),
                ("host_start_s", Json::F64(s.host_start)),
                ("host_end_s", Json::F64(s.host_end)),
                ("virt_start_s", Json::F64(s.virt_start)),
                ("virt_end_s", Json::F64(s.virt_end)),
                ("calls", Json::U64(s.calls)),
            ]);
            out.push_str(&doc.render());
            out.push('\n');
        }
        out
    }
}
