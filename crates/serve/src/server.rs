//! The asynchronous face of the serving layer: a scheduler thread that
//! owns a [`Batcher`](crate::batcher::Batcher) — over one session or a
//! replica pool — and answers concurrent clients.
//!
//! [`SampleServer::start`] moves a batcher onto a dedicated host thread.
//! Clients ([`ServeClient`]) submit requests from any thread and get a
//! [`Ticket`] back immediately; the scheduler **burst-collects** whatever
//! requests arrived while the device was busy (up to
//! [`ServeConfig::max_batch`](crate::ServeConfig::max_batch)), admits them
//! through the batcher's bounded queue, serves them as fused launches and
//! mails each result to its ticket. Under concurrent load this is what
//! coalesces independent requests into shared launches; a lone request is
//! simply a batch of one.
//!
//! The scheduler applies no timers: the simulator's clock is virtual, so
//! waiting wall-clock time for more requests would add latency without
//! adding determinism. Batches form from queue pressure alone, exactly as
//! the batcher's width-class/deadline-aware formation rule dictates (see
//! the [batcher module docs](crate::batcher)).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::batcher::{MicroBatcher, Request, RequestId, Response};
use crate::error::ServeError;

/// What a client eventually receives for one request.
pub type RequestOutcome = Result<Response, ServeError>;

/// Anything the scheduler thread can drive: a bounded admission step plus
/// a drain step that serves everything admitted. Implemented by every
/// [`Batcher`](crate::batcher::Batcher) — the single-session
/// [`MicroBatcher`] and the replicated
/// [`FleetBatcher`](crate::FleetBatcher) — so the same [`SampleServer`]
/// fronts either a lone device or a fault-tolerant pool.
pub trait BatchEngine: Send + 'static {
    /// Admits a request, or rejects it with a typed admission error.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] for backpressure, [`ServeError::Sampling`]
    /// for invalid inputs — both without touching a device.
    fn submit(&mut self, req: Request) -> Result<RequestId, ServeError>;

    /// Serves everything admitted and returns each request's outcome.
    fn drain(&mut self) -> Vec<(RequestId, RequestOutcome)>;

    /// Folds one host wall-clock latency observation (milliseconds per
    /// served burst) into the engine's metrics, if it keeps any. Wall time
    /// is non-deterministic by nature, so implementations must keep it out
    /// of their deterministic digests (see
    /// [`ServeMetrics`](crate::ServeMetrics)). The default is a no-op.
    fn observe_wall_ms(&mut self, _ms: f64) {}
}

enum Msg {
    Query(Request, Sender<RequestOutcome>),
    Shutdown,
}

/// A pending reply for one submitted request. Obtain the outcome with
/// [`Ticket::wait`]; dropping the ticket abandons the request's result
/// without disturbing the server.
pub struct Ticket {
    rx: Receiver<RequestOutcome>,
}

impl Ticket {
    /// Blocks until the request is served (or rejected) and returns the
    /// outcome. If the server's worker thread vanished — it panicked, or
    /// the server was dropped — before answering, the wait ends with
    /// [`ServeError::ServerGone`] instead of hanging forever.
    pub fn wait(self) -> RequestOutcome {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(ServeError::ServerGone),
        }
    }
}

/// A cloneable, `Send` handle for submitting requests to a running
/// [`SampleServer`] from any thread.
#[derive(Clone)]
pub struct ServeClient {
    tx: Sender<Msg>,
}

impl ServeClient {
    /// Submits a request and returns its [`Ticket`] without blocking on
    /// the sampling work itself.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] if the server has shut down. Admission
    /// errors ([`ServeError::QueueFull`], invalid inputs) arrive through
    /// the ticket.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        let (tx, rx) = channel();
        self.tx
            .send(Msg::Query(req, tx))
            .map_err(|_| ServeError::Disconnected)?;
        Ok(Ticket { rx })
    }

    /// Submits a request and blocks until its outcome.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`], including admission rejections.
    pub fn query(&self, req: Request) -> RequestOutcome {
        self.submit(req)?.wait()
    }
}

/// A sampling service: one scheduler thread owning a [`BatchEngine`] — a
/// warm session's [`MicroBatcher`] by default, or a replicated
/// [`FleetBatcher`](crate::FleetBatcher). See the
/// [module docs](self).
pub struct SampleServer<E: BatchEngine = MicroBatcher> {
    tx: Sender<Msg>,
    join: Option<JoinHandle<E>>,
}

impl<E: BatchEngine> SampleServer<E> {
    /// Starts the scheduler thread around `engine`.
    pub fn start(engine: E) -> Self {
        let (tx, rx) = channel::<Msg>();
        let join = std::thread::spawn(move || scheduler_loop(engine, &rx));
        SampleServer {
            tx,
            join: Some(join),
        }
    }

    /// A new client handle; clone it freely across threads.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            tx: self.tx.clone(),
        }
    }

    /// Stops the scheduler after it answers everything already submitted,
    /// and recovers the engine (and through it the warm session or pool).
    pub fn shutdown(mut self) -> E {
        let _ = self.tx.send(Msg::Shutdown);
        match self.join.take() {
            // A panic in the scheduler thread would already have poisoned
            // the run; surface it instead of fabricating an engine.
            Some(join) => match join.join() {
                Ok(b) => b,
                Err(p) => std::panic::resume_unwind(p),
            },
            None => unreachable!("shutdown consumes self"),
        }
    }
}

impl<E: BatchEngine> Drop for SampleServer<E> {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The scheduler body: block for one message, burst-collect the rest of
/// the waiting queue, admit + serve, mail results.
fn scheduler_loop<E: BatchEngine>(mut engine: E, rx: &Receiver<Msg>) -> E {
    let mut waiting: Vec<(Request, Sender<RequestOutcome>)> = Vec::new();
    'serve: loop {
        // Block until at least one request (or shutdown) arrives.
        match rx.recv() {
            Ok(Msg::Query(req, reply)) => waiting.push((req, reply)),
            Ok(Msg::Shutdown) | Err(_) => break 'serve,
        }
        // Burst-collect whatever else is already queued on the channel.
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Msg::Query(req, reply) => waiting.push((req, reply)),
                Msg::Shutdown => {
                    serve_waiting(&mut engine, &mut waiting);
                    break 'serve;
                }
            }
        }
        serve_waiting(&mut engine, &mut waiting);
    }
    engine
}

/// Admits the collected burst and drains the engine, routing each outcome
/// to its submitter.
fn serve_waiting<E: BatchEngine>(
    engine: &mut E,
    waiting: &mut Vec<(Request, Sender<RequestOutcome>)>,
) {
    let wall_t0 = std::time::Instant::now();
    let mut replies = Vec::with_capacity(waiting.len());
    for (req, reply) in waiting.drain(..) {
        match engine.submit(req) {
            Ok(id) => replies.push((id, reply)),
            // Rejected at admission: the outcome is already known.
            Err(e) => {
                let _ = reply.send(Err(e));
            }
        }
    }
    let outcomes = engine.drain();
    engine.observe_wall_ms(wall_t0.elapsed().as_secs_f64() * 1e3);
    for (id, outcome) in outcomes {
        if let Some(pos) = replies.iter().position(|(rid, _)| *rid == id) {
            let (_, reply) = replies.swap_remove(pos);
            let _ = reply.send(outcome);
        }
    }
    // An engine that lost an admitted id (it should not) must still answer
    // the submitter: dropping the reply sender here surfaces as
    // `ServerGone` at the ticket rather than a hang — but be explicit.
    for (_, reply) in replies {
        let _ = reply.send(Err(ServeError::ServerGone));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::ServeConfig;
    use nextdoor_apps::KHop;
    use nextdoor_core::session::SamplerSession;
    use nextdoor_gpu::GpuSpec;
    use nextdoor_graph::gen::{rmat, RmatParams};

    fn server() -> SampleServer {
        let g = rmat(8, 1500, RmatParams::SKEWED, 11);
        let session =
            SamplerSession::new(GpuSpec::small(), g, Box::new(KHop::new(vec![2, 2]))).unwrap();
        SampleServer::start(MicroBatcher::new(session, ServeConfig::default()).unwrap())
    }

    fn req(seed: u64) -> Request {
        Request::new((0..4).map(|i| vec![i as u32]).collect(), seed)
    }

    #[test]
    fn concurrent_clients_get_their_own_samples() {
        let server = server();
        let handles: Vec<_> = (0..4)
            .map(|s| {
                let client = server.client();
                std::thread::spawn(move || client.query(req(s)).unwrap())
            })
            .collect();
        let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut batcher = server.shutdown();
        for (s, resp) in responses.iter().enumerate() {
            let solo = batcher
                .session_mut()
                .query(&req(s as u64).init, s as u64)
                .unwrap();
            assert_eq!(resp.store.final_samples(), solo.store.final_samples());
        }
        assert!(batcher.session().queries_served() >= 4);
    }

    #[test]
    fn tickets_resolve_in_submission_order_results() {
        let server = server();
        let client = server.client();
        let tickets: Vec<_> = (0..6).map(|s| client.submit(req(s)).unwrap()).collect();
        for t in tickets {
            let resp = t.wait().unwrap();
            assert!(resp.latency.batch_size >= 1);
        }
        drop(server); // Drop also shuts the scheduler down cleanly.
    }

    #[test]
    fn shutdown_disconnects_clients() {
        let server = server();
        let client = server.client();
        let batcher = server.shutdown();
        assert!(matches!(
            client.query(req(0)),
            Err(ServeError::Disconnected)
        ));
        drop(batcher);
    }
}
