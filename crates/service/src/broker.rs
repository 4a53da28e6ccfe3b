//! In-process request broker.
//!
//! The broker is the local transport of the service stack: callers
//! push a JSON request line plus a private reply queue onto a shared
//! [`MetricQueue`] (the `fs2-metrics` channel seam), and dispatcher
//! threads feed the lines through [`FleetService::handle_line`]. The
//! CLI's `--fleet` action is a thin client of this broker; the TCP
//! front-end is the same loop with a socket instead of a queue.

use crate::proto::{kind, FleetReply};
use crate::service::FleetService;
use fs2_metrics::MetricQueue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One in-flight brokered request: the wire line and where to push
/// the reply line.
#[derive(Debug)]
struct BrokerJob {
    line: String,
    reply_to: Arc<MetricQueue<String>>,
}

/// A broker bound to one [`FleetService`].
#[derive(Debug)]
pub struct Broker {
    requests: Arc<MetricQueue<BrokerJob>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl Broker {
    /// Starts `dispatchers` threads feeding the service (0 = one per
    /// active-request slot, so the broker never starves the gate).
    pub fn new(service: Arc<FleetService>, dispatchers: usize) -> Broker {
        let n = if dispatchers == 0 {
            service.admission_config().max_active
        } else {
            dispatchers
        };
        let requests: Arc<MetricQueue<BrokerJob>> = Arc::new(MetricQueue::unbounded());
        let handles = (0..n)
            .map(|_| {
                let requests = Arc::clone(&requests);
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    while let Some(job) = requests.pop_wait() {
                        // A panicking handler must not take the
                        // dispatcher thread down — and, worse, leave
                        // the caller parked on its reply queue forever.
                        let reply =
                            catch_unwind(AssertUnwindSafe(|| service.handle_line(&job.line)))
                                .unwrap_or_else(|_| {
                                    FleetReply::failure_kind(
                                        kind::SHARD_PANIC,
                                        "internal error: request handler panicked",
                                    )
                                    .to_line()
                                });
                        // A vanished caller is not an error.
                        let _ = job.reply_to.try_push(reply);
                    }
                })
            })
            .collect();
        Broker {
            requests,
            dispatchers: handles,
        }
    }

    /// Submits one request line and blocks for the reply line.
    /// Returns `None` only when the broker is shutting down.
    pub fn call(&self, line: impl Into<String>) -> Option<String> {
        let reply_to: Arc<MetricQueue<String>> = Arc::new(MetricQueue::bounded(1));
        self.requests
            .push_wait(BrokerJob {
                line: line.into(),
                reply_to: Arc::clone(&reply_to),
            })
            .ok()?;
        reply_to.pop_wait()
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.requests.close();
        for d in self.dispatchers.drain(..) {
            let _ = d.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{FleetReply, FleetRequest};
    use crate::service::ServiceConfig;

    fn tiny_request(seed: u64) -> FleetRequest {
        FleetRequest {
            nodes: 6,
            samples_per_node: 30,
            seed: Some(seed),
            ..FleetRequest::fig1()
        }
    }

    #[test]
    fn brokered_call_round_trips_a_request() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let broker = Broker::new(Arc::clone(&service), 2);
        let reply_line = broker.call(tiny_request(9).to_line()).unwrap();
        let reply = FleetReply::from_line(&reply_line).unwrap();
        assert!(reply.ok, "reply failed: {:?}", reply.error);
        assert_eq!(reply.samples.len(), 6 * 30);
    }

    #[test]
    fn malformed_lines_get_failure_replies_not_hangs() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let broker = Broker::new(service, 1);
        let reply = FleetReply::from_line(&broker.call("{oops").unwrap()).unwrap();
        assert!(!reply.ok);
        assert!(reply.error.unwrap().contains("invalid JSON"));
    }

    #[test]
    fn concurrent_callers_each_get_their_own_reply() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let broker = Arc::new(Broker::new(service, 0));
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let broker = Arc::clone(&broker);
                std::thread::spawn(move || {
                    let line = broker.call(tiny_request(i).to_line()).unwrap();
                    FleetReply::from_line(&line).unwrap()
                })
            })
            .collect();
        let replies: Vec<FleetReply> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(replies.iter().all(|r| r.ok));
        // Distinct seeds produce distinct streams; same-seed calls
        // would collide if replies were cross-wired.
        for (i, a) in replies.iter().enumerate() {
            for b in replies.iter().skip(i + 1) {
                assert_ne!(a.samples, b.samples);
            }
        }
    }
}
