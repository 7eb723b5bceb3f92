//! Decorators that observe the program from outside its public traits:
//! a counting trace sink, a timing controller and a metered predictor.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kafka_predict::{Features, Prediction, Predictor};
use kafkasim::config::ProducerConfig;
use kafkasim::runtime::{OnlineController, WindowStats};
use obs::{MetricsRegistry, Profiler, TraceEvent, TraceSink};

use crate::alloc;
use crate::harness::{Fnv, KindCounts};

/// Counts trace events by kind into a map the caller keeps a handle to.
pub struct CountingSink(pub Rc<RefCell<KindCounts>>);

impl TraceSink for CountingSink {
    fn record(&mut self, event: TraceEvent) {
        *self.0.borrow_mut().entry(event.kind()).or_default() += 1;
    }
}

/// One `decide` call as seen from outside.
#[derive(Debug, Clone, Copy)]
pub struct Decide {
    pub ns: u64,
    /// Whether the call refitted the policy's model.
    pub refit: bool,
    /// Whether this was the controller's first call (empty caches).
    pub cold: bool,
    /// Heap allocations the call made (counted on profiled runs only).
    pub allocs: u64,
    /// Digest of the configuration the call returned.
    pub config: u64,
}

/// Times every `decide` of the wrapped controller. On profiled runs it
/// also opens a `core.decide` span around the call and counts the call's
/// heap allocations.
pub struct Timed<C> {
    pub inner: C,
    prof: Profiler,
    refits: fn(&C) -> u64,
    log: Mutex<Vec<Decide>>,
}

impl<C> Timed<C> {
    /// `refits` reads the controller's cumulative refit count.
    pub fn new(inner: C, prof: Profiler, refits: fn(&C) -> u64) -> Self {
        Timed {
            inner,
            prof,
            refits,
            log: Mutex::new(Vec::new()),
        }
    }

    pub fn decides(&self) -> Vec<Decide> {
        self.log.lock().expect("decide log poisoned").clone()
    }
}

impl<C: OnlineController> OnlineController for Timed<C> {
    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig> {
        let before = (self.refits)(&self.inner);
        let span = self.prof.span("core.decide");
        let start = Instant::now();
        let (next, allocs) = if self.prof.is_enabled() {
            alloc::count(|| self.inner.decide(stats, current))
        } else {
            (self.inner.decide(stats, current), 0)
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        drop(span);
        let refit = (self.refits)(&self.inner) != before;
        let mut h = Fnv::default();
        if let Some(c) = &next {
            h.u64(c.batch_size as u64);
            h.u64(c.poll_interval.as_micros());
            h.u64(c.message_timeout.as_micros());
            h.u64(c.linger.as_micros());
            h.u64(u64::from(c.max_retries));
            h.u64(c.semantics as u64);
        }
        let mut log = self.log.lock().expect("decide log poisoned");
        let cold = log.is_empty();
        log.push(Decide {
            ns,
            refit,
            cold,
            allocs,
            config: h.finish(),
        });
        next
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        self.inner.export_metrics(registry);
    }

    fn drain_events(&self, out: &mut Vec<TraceEvent>) {
        self.inner.drain_events(out);
    }
}

/// Rows a [`Metered`] predictor evaluated and the host time it spent.
#[derive(Debug, Default)]
pub struct Meter {
    rows: AtomicU64,
    ns: AtomicU64,
}

impl Meter {
    /// `(rows evaluated, host nanoseconds spent evaluating them)`.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.rows.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// Counts the rows a predictor evaluates and the host time it spends,
/// into a [`Meter`] the caller keeps after handing the predictor away.
pub struct Metered<P> {
    inner: P,
    meter: Arc<Meter>,
}

impl<P> Metered<P> {
    pub fn new(inner: P) -> Self {
        Metered {
            inner,
            meter: Arc::default(),
        }
    }

    pub fn meter(&self) -> Arc<Meter> {
        Arc::clone(&self.meter)
    }

    fn charge(&self, rows: usize, start: Instant) {
        // Relaxed: statistics only, read after the run has returned.
        self.meter.rows.fetch_add(rows as u64, Ordering::Relaxed);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.meter.ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl<P: Predictor> Predictor for Metered<P> {
    fn predict(&self, features: &Features) -> Prediction {
        let start = Instant::now();
        let p = self.inner.predict(features);
        self.charge(1, start);
        p
    }

    fn predict_batch(&self, features: &[Features]) -> Vec<Prediction> {
        let start = Instant::now();
        let p = self.inner.predict_batch(features);
        self.charge(features.len(), start);
        p
    }
}
