//! Multiplexed connections: many requests in flight on one TCP stream.
//!
//! [`MuxConn`] is the client half of the wire's `request_id` field. Callers
//! [`begin`](MuxConn::begin) a request (allocating a fresh id and writing
//! the frame) and later [`finish`](MuxConn::finish) it (blocking until the
//! response carrying that id arrives); any number of begin/finish pairs
//! from any number of threads may overlap on the same connection, and the
//! server is free to answer them in whatever order the work completes.
//!
//! # No background threads
//!
//! The demultiplexer is **caller-driven**: there is no reader thread.
//! Whichever caller is waiting takes exclusive ownership of the socket's
//! read half, reads one frame, and delivers it — to itself, or into the
//! mailbox of whichever other caller owns that id (waking it via condvar).
//! When a caller's response arrives it hands the read half to the next
//! waiter. This keeps lifetimes trivial (no thread to join, no channel to
//! drain on reconnect) while still letting N callers share one socket.
//!
//! # Failure semantics
//!
//! A transport or framing error poisons the connection: every in-flight
//! caller fails loudly, and the next [`MuxConn::begin`] reconnects under a bumped
//! *generation* so stale reads from the dead socket can never be delivered
//! as fresh responses. A response whose id matches no in-flight request is
//! a protocol violation (the peer invented or duplicated an id) and also
//! poisons the connection — a frame is **never** delivered to the wrong
//! caller, and never silently dropped unless its request was already
//! abandoned by a timeout.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::wire::{read_frame_with, write_frame_with, Frame, WireError};

/// How long a waiter parks on the condvar between mailbox checks. Purely a
/// liveness bound (missed-wakeup insurance); the common path is woken
/// explicitly by the caller that read its frame.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// A claim on one in-flight request: returned by [`MuxConn::begin`],
/// consumed by [`MuxConn::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    id: u32,
    generation: u64,
}

impl Ticket {
    /// The request id this ticket's frame went out under.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Why a mux operation failed.
#[derive(Debug, Clone)]
pub enum MuxError {
    /// The transport failed (connect, write, read, deadline). Retryable:
    /// the next [`MuxConn::begin`] reconnects.
    Transport {
        /// What happened.
        detail: String,
        /// Whether the failure was a read-deadline expiry.
        timeout: bool,
    },
    /// The peer violated the protocol (undecodable frame, or a response id
    /// matching no in-flight request). Not retryable — resending the same
    /// bytes cannot fix a peer that mis-speaks the protocol.
    Protocol {
        /// What happened.
        detail: String,
    },
}

impl fmt::Display for MuxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuxError::Transport { detail, .. } => write!(f, "transport: {detail}"),
            MuxError::Protocol { detail } => write!(f, "protocol: {detail}"),
        }
    }
}

impl std::error::Error for MuxError {}

/// What poisoned the connection, remembered until the next reconnect.
#[derive(Clone)]
enum Fault {
    Transport { detail: String, timeout: bool },
    Protocol { detail: String },
}

impl Fault {
    fn to_error(&self) -> MuxError {
        match self {
            Fault::Transport { detail, timeout } => MuxError::Transport {
                detail: detail.clone(),
                timeout: *timeout,
            },
            Fault::Protocol { detail } => MuxError::Protocol {
                detail: detail.clone(),
            },
        }
    }
}

struct MuxInner {
    /// Write half; `None` until the first `begin` connects (or after a
    /// fault drops the socket).
    writer: Option<TcpStream>,
    /// Read half (a `try_clone` of the same socket). Taken — `None` —
    /// while some caller of the current generation owns it.
    reader: Option<TcpStream>,
    /// Responses read on behalf of other callers, by request id, with the
    /// wire bytes each response consumed.
    mailbox: HashMap<u32, (Frame, usize)>,
    /// Ids with a caller still waiting.
    expected: HashSet<u32>,
    /// Ids whose caller gave up (deadline). A late response to one of
    /// these is dropped silently instead of counting as unsolicited.
    abandoned: HashSet<u32>,
    /// Why the connection is unusable, if it is.
    fault: Option<Fault>,
    /// Bumped on every (re)connect; tickets from older generations fail.
    generation: u64,
}

/// One multiplexed client connection (see the module docs).
pub struct MuxConn {
    addr: SocketAddr,
    deadline: Duration,
    inner: Mutex<MuxInner>,
    ready: Condvar,
    next_id: AtomicU32,
    peak_in_flight: AtomicUsize,
}

impl MuxConn {
    /// Creates a handle to `addr`; the socket is opened lazily by the
    /// first [`begin`](Self::begin). `deadline` bounds connect, write and
    /// per-response waits.
    pub fn new(addr: SocketAddr, deadline: Duration) -> MuxConn {
        MuxConn {
            addr,
            deadline,
            inner: Mutex::new(MuxInner {
                writer: None,
                reader: None,
                mailbox: HashMap::new(),
                expected: HashSet::new(),
                abandoned: HashSet::new(),
                fault: None,
                generation: 0,
            }),
            ready: Condvar::new(),
            next_id: AtomicU32::new(1),
            peak_in_flight: AtomicUsize::new(0),
        }
    }

    /// The highest number of requests ever simultaneously in flight on
    /// this connection.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight.load(Ordering::Relaxed)
    }

    /// Writes `frame` under a fresh request id, returning a [`Ticket`] to
    /// [`finish`](Self::finish) with and the bytes put on the wire.
    /// Reconnects if the connection is down or poisoned (failing any
    /// requests still in flight from the previous socket).
    pub fn begin(&self, frame: &Frame) -> Result<(Ticket, usize), MuxError> {
        let mut inner = self.lock();
        let mut writer = match inner.writer.take() {
            Some(writer) if inner.fault.is_none() => writer,
            _ => self.reconnect(&mut inner)?,
        };
        let mut id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Skip 0 (the un-multiplexed conventional id) and, after a u32
        // wrap, any id still in flight.
        while id == 0 || inner.expected.contains(&id) || inner.abandoned.contains(&id) {
            id = self.next_id.fetch_add(1, Ordering::Relaxed);
        }
        let tx = match write_frame_with(&mut writer, id, frame) {
            Ok(tx) => tx,
            Err(e) => {
                let fault = Fault::Transport {
                    detail: format!("write: {e}"),
                    timeout: false,
                };
                let err = fault.to_error();
                self.poison(&mut inner, fault);
                return Err(err);
            }
        };
        inner.writer = Some(writer);
        inner.expected.insert(id);
        let in_flight = inner.expected.len() + inner.mailbox.len();
        self.peak_in_flight.fetch_max(in_flight, Ordering::Relaxed);
        Ok((
            Ticket {
                id,
                generation: inner.generation,
            },
            tx,
        ))
    }

    /// Blocks until the response for `ticket` arrives, returning it with
    /// the wire bytes it consumed. While waiting, this caller may service
    /// the socket on behalf of every other waiter (see the module docs).
    pub fn finish(&self, ticket: Ticket) -> Result<(Frame, usize), MuxError> {
        let start = Instant::now();
        let mut inner = self.lock();
        loop {
            if let Some(delivered) = inner.mailbox.remove(&ticket.id) {
                return Ok(delivered);
            }
            if inner.generation != ticket.generation {
                return Err(MuxError::Transport {
                    detail: "connection was reset while the request was in flight".to_string(),
                    timeout: false,
                });
            }
            if let Some(fault) = &inner.fault {
                let err = fault.to_error();
                inner.expected.remove(&ticket.id);
                return Err(err);
            }
            if start.elapsed() >= self.deadline {
                // Give up on this request but keep the connection: a late
                // response to an abandoned id is dropped, not mis-routed.
                inner.expected.remove(&ticket.id);
                inner.abandoned.insert(ticket.id);
                return Err(MuxError::Transport {
                    detail: format!("no response within {:?}", self.deadline),
                    timeout: true,
                });
            }
            if let Some(mut reader) = inner.reader.take() {
                // Read without the lock so other callers can begin and
                // pick up their own deliveries meanwhile.
                drop(inner);
                let result = read_frame_with(&mut reader);
                inner = self.lock();
                self.deliver(&mut inner, reader, ticket.generation, result);
                self.ready.notify_all();
            } else {
                let (guard, _timeout) = self
                    .ready
                    .wait_timeout(inner, WAIT_SLICE)
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
            }
        }
    }

    /// One request/response exchange: [`begin`](Self::begin) +
    /// [`finish`](Self::finish). Returns the response frame and the
    /// (tx, rx) wire byte counts.
    pub fn call(&self, frame: &Frame) -> Result<(Frame, usize, usize), MuxError> {
        let (ticket, tx) = self.begin(frame)?;
        let (response, rx) = self.finish(ticket)?;
        Ok((response, tx, rx))
    }

    /// The connection state. It is held for bookkeeping and a frame write;
    /// the one panic there (an oversized frame's encode) fires while
    /// `begin` holds the writer outside the state, so the next `begin`
    /// reconnects and nothing else is left half-done.
    fn lock(&self) -> MutexGuard<'_, MuxInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Delivers the outcome of one socket read (performed with the mux
    /// lock released): into the mailbox of whichever request it answers,
    /// or into a poisoned state if the peer mis-spoke.
    fn deliver(
        &self,
        inner: &mut MuxInner,
        reader: TcpStream,
        generation: u64,
        result: Result<(u32, Frame, usize), WireError>,
    ) {
        if inner.generation != generation {
            // The connection was torn down and re-opened while we were
            // reading: whatever we read came from the dead socket. Drop
            // it — and the stale socket — on the floor.
            return;
        }
        match result {
            Ok((id, frame, rx)) => {
                if inner.expected.remove(&id) {
                    inner.mailbox.insert(id, (frame, rx));
                    inner.reader = Some(reader);
                } else if inner.abandoned.remove(&id) {
                    // Late answer to a timed-out request: dropped.
                    inner.reader = Some(reader);
                } else {
                    self.poison(
                        inner,
                        Fault::Protocol {
                            detail: format!(
                                "unsolicited response id {id} ('{}' frame)",
                                frame.kind()
                            ),
                        },
                    );
                }
            }
            Err(e) => {
                let fault = match e {
                    WireError::Io(_) | WireError::Truncated { .. } => Fault::Transport {
                        timeout: e.is_timeout(),
                        detail: format!("read: {e}"),
                    },
                    other => Fault::Protocol {
                        detail: format!("read: {other}"),
                    },
                };
                self.poison(inner, fault);
            }
        }
    }

    /// Marks the connection unusable and drops both socket halves. Every
    /// waiter observes the fault on its next loop iteration.
    fn poison(&self, inner: &mut MuxInner, fault: Fault) {
        inner.fault = Some(fault);
        inner.writer = None;
        inner.reader = None;
        self.ready.notify_all();
    }

    /// Opens a fresh socket under a bumped generation and hands back its
    /// writing half. In-flight requests from the previous generation fail
    /// with a reset error when their callers next look.
    fn reconnect(&self, inner: &mut MuxInner) -> Result<TcpStream, MuxError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.deadline)
            .and_then(|s| {
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(self.deadline))?;
                s.set_write_timeout(Some(self.deadline))?;
                Ok(s)
            })
            .map_err(|e| MuxError::Transport {
                detail: format!("connect {}: {e}", self.addr),
                timeout: false,
            })?;
        let reader = stream.try_clone().map_err(|e| MuxError::Transport {
            detail: format!("clone socket: {e}"),
            timeout: false,
        })?;
        inner.generation += 1;
        inner.reader = Some(reader);
        inner.mailbox.clear();
        inner.expected.clear();
        inner.abandoned.clear();
        inner.fault = None;
        self.ready.notify_all();
        Ok(stream)
    }
}
