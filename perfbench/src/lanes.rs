//! The two transports the generator drives: a pipelined HTTP connection
//! and an in-process [`Runtime`] handle. Both verify every answer
//! against the oracle fingerprint of the item sent.

use crate::http::{self, Connection};
use crate::load::{Completion, Lane, Outcome, ServerSide};
use scales_data::Image;
use scales_runtime::{Runtime, ServeError, Ticket};
use scales_serve::{SrRequest, SrResponse};
use scales_telemetry::RequestId;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The wire form of a request id: the id the server echoes and records.
#[must_use]
pub fn wire_id(id: u64) -> String {
    format!("pb{id}")
}

/// FNV-1a fingerprint of images' exact `f32` bit patterns.
#[must_use]
pub fn bits_fingerprint(images: &[Image]) -> u64 {
    let mut h = scales_io::Fnv1a::new();
    for image in images {
        for v in image.tensor().data() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Sleep until `until` in [`crate::http::POLL_SLICE`] steps: on a VM a
/// long sleep lets the vCPUs halt, and the next request then pays the
/// hypervisor's wake latency, which varies with the host's load.
fn sleep_hot(until: Instant) {
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(http::POLL_SLICE));
    }
}

/// One pre-built HTTP request of the input pool.
pub struct HttpItem {
    /// Route, e.g. `/v1/upscale`.
    pub path: String,
    /// Body media type.
    pub content_type: &'static str,
    /// Extra headers (tenant, deadline).
    pub headers: Vec<(&'static str, String)>,
    /// Encoded LR image.
    pub body: Vec<u8>,
    /// Oracle fingerprint of the expected response body.
    pub expected: u64,
}

impl HttpItem {
    /// The raw request for id `id`.
    #[must_use]
    pub fn raw(&self, id: u64) -> Vec<u8> {
        let mut headers = vec![("X-Scales-Request-Id", wire_id(id))];
        headers.extend(self.headers.iter().cloned());
        http::post(&self.path, self.content_type, &headers, &self.body)
    }

    /// Verdict on one response to this item.
    #[must_use]
    pub fn judge(&self, id: u64, response: &http::Response) -> Outcome {
        match response.status {
            200 if response.id.as_deref() != Some(wire_id(id).as_str()) => Outcome::Failed,
            200 if scales_io::fingerprint(&response.body) == self.expected => Outcome::Ok,
            200 => Outcome::Mismatch,
            429 | 503 | 504 => Outcome::Refused,
            _ => Outcome::Failed,
        }
    }
}

/// A keep-alive connection sending pool items, answers matched in order.
pub struct HttpLane<'a> {
    conn: Option<Connection>,
    items: &'a [HttpItem],
    outstanding: VecDeque<(u64, usize)>,
}

impl<'a> HttpLane<'a> {
    /// Open a connection to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn open(addr: SocketAddr, items: &'a [HttpItem]) -> std::io::Result<Self> {
        Ok(Self {
            conn: Some(Connection::open(addr)?),
            items,
            outstanding: VecDeque::new(),
        })
    }

    fn fail_all(&mut self) -> Vec<Completion> {
        self.conn = None;
        let now = Instant::now();
        self.outstanding
            .drain(..)
            .map(|(id, _)| Completion {
                id,
                outcome: Outcome::Failed,
                done: now,
                server: None,
            })
            .collect()
    }
}

impl Lane for HttpLane<'_> {
    fn send(&mut self, id: u64, item: usize) -> Option<Completion> {
        let raw = self.items[item].raw(id);
        match self.conn.as_mut().map(|c| c.send(&raw)) {
            Some(Ok(())) => {
                self.outstanding.push_back((id, item));
                None
            }
            _ => Some(Completion {
                id,
                outcome: Outcome::Failed,
                done: Instant::now(),
                server: None,
            }),
        }
    }

    fn poll(&mut self, until: Instant) -> Vec<Completion> {
        let conn = match self.conn.as_mut() {
            Some(conn) if !self.outstanding.is_empty() => conn,
            // Nothing to read: sleep to the next due time in short
            // slices, keeping the vCPUs awake like the socket polling does.
            _ => {
                sleep_hot(until);
                return Vec::new();
            }
        };
        match conn.poll(until) {
            Ok(responses) => {
                let done = Instant::now();
                let mut out = Vec::with_capacity(responses.len());
                for response in responses {
                    let Some((id, item)) = self.outstanding.pop_front() else {
                        // An answer nobody asked for: the stream is out of
                        // step, so nothing after it can be trusted.
                        out.extend(self.fail_all());
                        break;
                    };
                    let outcome = self.items[item].judge(id, &response);
                    out.push(Completion {
                        id,
                        outcome,
                        done,
                        server: None,
                    });
                }
                out
            }
            Err(_) => self.fail_all(),
        }
    }

    fn abandon(&mut self) -> Vec<Completion> {
        self.fail_all()
    }

    fn images_per_request(&self) -> usize {
        1
    }
}

/// One pre-built in-process request of the input pool.
pub struct BulkItem {
    /// The LR images of the request.
    pub images: Vec<Image>,
    /// Oracle fingerprint of the SR images' `f32` bits.
    pub expected: u64,
}

/// Submits pool items to a [`Runtime`] and collects the tickets.
pub struct RuntimeLane<'a> {
    runtime: &'a Runtime,
    items: &'a [BulkItem],
    outstanding: VecDeque<(u64, usize, Ticket)>,
}

impl<'a> RuntimeLane<'a> {
    /// A lane over `runtime`.
    #[must_use]
    pub fn new(runtime: &'a Runtime, items: &'a [BulkItem]) -> Self {
        Self {
            runtime,
            items,
            outstanding: VecDeque::new(),
        }
    }

    fn judge(
        &self,
        item: usize,
        result: Result<SrResponse, ServeError>,
    ) -> (Outcome, Option<ServerSide>) {
        match result {
            Ok(response) => {
                let stats = response.stats();
                let server = response.stamps().map(|s| ServerSide {
                    stamps: [s.enqueued, s.dequeued, s.sealed, s.infer_done],
                    plans_built: stats.plans_built,
                    plan_reuses: stats.plan_reuses,
                });
                let outcome = if bits_fingerprint(response.images()) == self.items[item].expected {
                    Outcome::Ok
                } else {
                    Outcome::Mismatch
                };
                (outcome, server)
            }
            Err(ServeError::Rejected(_)) => (Outcome::Refused, None),
            Err(ServeError::Infer(_)) => (Outcome::Failed, None),
        }
    }
}

/// Poll slice while more than one ticket is outstanding: the lane waits
/// on the oldest ticket, so a younger one that finishes first is seen
/// within this bound (and the vCPUs stay awake, as in the HTTP client).
const POLL_SLICE: Duration = Duration::from_micros(250);

impl Lane for RuntimeLane<'_> {
    fn send(&mut self, id: u64, item: usize) -> Option<Completion> {
        let request = SrRequest::batch(self.items[item].images.clone())
            .request_id(RequestId::parse(&wire_id(id)).expect("pb<digits> is a valid request id"));
        match self.runtime.submit(request) {
            Ok(ticket) => {
                self.outstanding.push_back((id, item, ticket));
                None
            }
            Err(e) => {
                let outcome = if e.reject_reason().is_some() {
                    Outcome::Refused
                } else {
                    Outcome::Failed
                };
                Some(Completion {
                    id,
                    outcome,
                    done: Instant::now(),
                    server: None,
                })
            }
        }
    }

    fn poll(&mut self, until: Instant) -> Vec<Completion> {
        loop {
            let mut out = Vec::new();
            let mut i = 0;
            while i < self.outstanding.len() {
                if self.outstanding[i].2.is_ready() {
                    let (id, item, ticket) = self.outstanding.remove(i).expect("index is in range");
                    let (outcome, server) = self.judge(item, ticket.wait());
                    out.push(Completion {
                        id,
                        outcome,
                        done: Instant::now(),
                        server,
                    });
                } else {
                    i += 1;
                }
            }
            let now = Instant::now();
            if !out.is_empty() || now >= until {
                return out;
            }
            let Some((id, item, ticket)) = self.outstanding.pop_front() else {
                sleep_hot(until);
                return out;
            };
            let slice = if self.outstanding.is_empty() {
                until - now
            } else {
                POLL_SLICE.min(until - now)
            };
            match ticket.wait_timeout(slice) {
                Ok(result) => {
                    let (outcome, server) = self.judge(item, result);
                    return vec![Completion {
                        id,
                        outcome,
                        done: Instant::now(),
                        server,
                    }];
                }
                Err(ticket) => self.outstanding.push_front((id, item, ticket)),
            }
        }
    }

    fn abandon(&mut self) -> Vec<Completion> {
        let now = Instant::now();
        self.outstanding
            .drain(..)
            .map(|(id, _, _)| Completion {
                id,
                outcome: Outcome::Failed,
                done: now,
                server: None,
            })
            .collect()
    }

    fn images_per_request(&self) -> usize {
        self.items.first().map_or(1, |i| i.images.len())
    }
}
