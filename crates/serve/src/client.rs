//! Typed blocking clients for the wire protocol.
//!
//! Two surfaces, both built by [`ClientBuilder`]:
//!
//! * [`Client`] — strict request-reply over protocol v2 (handshake,
//!   routing headers, graph targeting via [`Client::set_graph`]). Every
//!   method decodes the response into the type it promises —
//!   [`lookup`](Client::lookup) returns the outcome
//!   with its pinning epoch/version, [`metrics`](Client::metrics) a
//!   [`MetricsReport`], [`submit`](Client::submit) an
//!   `Ok(`[`Admitted`]`)`/`Err(`[`Rejection`]`)` admission verdict —
//!   and maps everything unexpected to a typed [`ClientError`].
//! * [`PipelinedClient`] — decoupled send/receive:
//!   [`send`](PipelinedClient::send) writes a frame and returns a
//!   [`Ticket`]; [`recv`](PipelinedClient::recv) blocks for that ticket's
//!   answer, buffering out-of-order arrivals;
//!   [`recv_any`](PipelinedClient::recv_any) takes whatever completes
//!   next. Responses are re-associated by the echoed `request_id`, so
//!   answers may arrive in any order across graphs.

use crate::error::{ClientError, WireError};
use crate::wire::{
    encode_v2_request, read_frame, write_frame, GraphInfo, LookupOutcome, MetricsReport,
    RejectCode, Request, Response, PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A typed admission verdict: the batch was queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// Admission ticket (1-based, dense per tenant lifetime).
    pub ticket: u64,
    /// Queue depth after admission.
    pub queued: u32,
}

/// A typed admission verdict: the batch was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Which admission rule fired.
    pub code: RejectCode,
    /// Human-readable detail from the daemon.
    pub detail: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.detail)
    }
}

/// A completed flush: every batch admitted before the request is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flushed {
    /// Current epoch.
    pub epoch: u64,
    /// Version after the flush.
    pub version: u64,
    /// Ticks run since daemon start.
    pub ticks: u64,
}

/// A completed snapshot hot-swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swapped {
    /// The new epoch.
    pub epoch: u64,
    /// Nodes in the new graph.
    pub n: u64,
    /// Edges in the new graph.
    pub m: u64,
}

/// Palette introspection of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaletteInfo {
    /// Current epoch.
    pub epoch: u64,
    /// Palette budget `P`.
    pub palette: u64,
    /// Current maximum degree Δ.
    pub max_degree: u64,
    /// Distinct colors actually used.
    pub colors_used: u64,
}

/// Handle for one in-flight pipelined request; redeem it with
/// [`PipelinedClient::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    id: u64,
}

impl Ticket {
    /// The client-chosen `request_id` the response will echo.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Connection options for both client surfaces.
#[derive(Debug, Clone, Default)]
pub struct ClientBuilder {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
}

impl ClientBuilder {
    /// A builder with no timeouts (blocking connect, blocking reads).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail `connect` calls that take longer than `d`.
    pub fn connect_timeout(mut self, d: Duration) -> Self {
        self.connect_timeout = Some(d);
        self
    }

    /// Fail reads that stall longer than `d` (surfaces as
    /// [`ClientError::Wire`] with a timeout [`io::Error`]).
    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.read_timeout = Some(d);
        self
    }

    fn open(&self, addr: impl ToSocketAddrs) -> Result<TcpStream, ClientError> {
        let stream = match self.connect_timeout {
            Some(t) => {
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    ClientError::from(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "address resolved to nothing",
                    ))
                })?;
                TcpStream::connect_timeout(&resolved, t)?
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        Ok(stream)
    }

    /// Connects and performs the v2 handshake; requests target graph 0
    /// until [`Client::set_graph`] changes that.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Handshake`] if the daemon
    /// refuses the version or answers anything but a `Welcome`.
    pub fn connect(&self, addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = self.open(addr)?;
        let (max_inflight, graphs) = handshake(&mut stream)?;
        Ok(Client {
            stream,
            next_id: 1,
            graph: 0,
            max_inflight,
            graphs,
        })
    }

    /// Connects and performs the v2 handshake for pipelined use.
    ///
    /// # Errors
    ///
    /// As [`ClientBuilder::connect`].
    pub fn connect_pipelined(
        &self,
        addr: impl ToSocketAddrs,
    ) -> Result<PipelinedClient, ClientError> {
        let mut stream = self.open(addr)?;
        let (max_inflight, graphs) = handshake(&mut stream)?;
        Ok(PipelinedClient {
            stream,
            next_id: 1,
            max_inflight,
            graphs,
            stashed: HashMap::new(),
        })
    }
}

/// Sends `Hello`, expects `Welcome`; both frames are headerless.
fn handshake(stream: &mut TcpStream) -> Result<(u32, Vec<GraphInfo>), ClientError> {
    write_frame(
        stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )?;
    match Response::decode(&read_payload(stream)?)? {
        Response::Welcome {
            version,
            max_inflight,
            graphs,
        } => {
            if version != PROTOCOL_VERSION {
                return Err(ClientError::Handshake {
                    detail: format!("daemon answered unexpected version {version}"),
                });
            }
            Ok((max_inflight, graphs))
        }
        Response::ProtocolRejected { detail } => Err(ClientError::Handshake { detail }),
        other => Err(ClientError::Handshake {
            detail: format!("expected Welcome, got {other:?}"),
        }),
    }
}

fn read_payload(stream: &mut TcpStream) -> Result<Vec<u8>, ClientError> {
    match read_frame(stream)? {
        Some(payload) => Ok(payload),
        None => Err(ClientError::Wire(WireError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before responding",
        )))),
    }
}

/// A strict request-reply client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    graph: u32,
    max_inflight: u32,
    graphs: Vec<GraphInfo>,
}

impl Client {
    /// Connects with the v2 handshake and no timeouts — shorthand for
    /// `ClientBuilder::new().connect(addr)`.
    ///
    /// # Errors
    ///
    /// See [`ClientBuilder::connect`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        ClientBuilder::new().connect(addr)
    }

    /// The served-graph catalog from the handshake.
    pub fn catalog(&self) -> &[GraphInfo] {
        &self.graphs
    }

    /// The in-flight cap the daemon advertised.
    pub fn max_inflight(&self) -> u32 {
        self.max_inflight
    }

    /// Targets all subsequent requests at `graph`.
    pub fn set_graph(&mut self, graph: u32) -> &mut Self {
        self.graph = graph;
        self
    }

    /// The graph id requests currently target.
    pub fn graph(&self) -> u32 {
        self.graph
    }

    /// Low-level escape hatch: sends one request and returns the raw
    /// decoded response. The typed methods below are built on this; tests
    /// that probe protocol corners use it directly.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on transport/codec failures, or
    /// [`ClientError::Unexpected`] if the echoed `request_id` does not
    /// match (impossible against a correct daemon in request-reply use).
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let rid = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_v2_request(rid, self.graph, req))?;
        let payload = read_payload(&mut self.stream)?;
        let (got, resp) = crate::wire::decode_v2_response(&payload)?;
        if got != rid {
            return Err(ClientError::Unexpected {
                expected: "matching request id",
                got: format!("response tagged {got}, expected {rid}"),
            });
        }
        Ok(resp)
    }

    /// Color lookup by stable edge id: the outcome plus the `(epoch,
    /// version)` pair that pins it.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; a non-`Color` answer is
    /// [`ClientError::Unexpected`] (or [`ClientError::Rejected`] for an
    /// unknown graph).
    pub fn lookup(&mut self, stable: u64) -> Result<(LookupOutcome, u64, u64), ClientError> {
        match self.request(&Request::Lookup { stable })? {
            Response::Color {
                epoch,
                version,
                outcome,
            } => Ok((outcome, epoch, version)),
            other => Err(unexpected("Color", other)),
        }
    }

    /// Submits a mutation batch; the admission verdict is data, not an
    /// error — only transport/protocol failures surface as `Err`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn submit(
        &mut self,
        delete: Vec<u64>,
        insert: Vec<(u32, u32)>,
    ) -> Result<Result<Admitted, Rejection>, ClientError> {
        match self.request(&Request::Submit { delete, insert })? {
            Response::Submitted { ticket, queued } => Ok(Ok(Admitted { ticket, queued })),
            Response::Rejected { code, detail } => Ok(Err(Rejection { code, detail })),
            other => Err(unexpected("Submitted or Rejected", other)),
        }
    }

    /// Fetches the metrics snapshot of the targeted graph.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn metrics(&mut self) -> Result<MetricsReport, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(report) => Ok(*report),
            other => Err(unexpected("Metrics", other)),
        }
    }

    /// Palette introspection of the targeted graph.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn palette(&mut self) -> Result<PaletteInfo, ClientError> {
        match self.request(&Request::Palette)? {
            Response::Palette {
                epoch,
                palette,
                max_degree,
                colors_used,
            } => Ok(PaletteInfo {
                epoch,
                palette,
                max_degree,
                colors_used,
            }),
            other => Err(unexpected("Palette", other)),
        }
    }

    /// Applies all batches admitted so far on the targeted graph.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn flush(&mut self) -> Result<Flushed, ClientError> {
        match self.request(&Request::Flush)? {
            Response::Flushed {
                epoch,
                version,
                ticks,
            } => Ok(Flushed {
                epoch,
                version,
                ticks,
            }),
            other => Err(unexpected("Flushed", other)),
        }
    }

    /// Requests a snapshot hot-swap on the targeted graph.
    ///
    /// # Errors
    ///
    /// [`ClientError::SwapRejected`] if the daemon refused the snapshot
    /// (the old generation is still serving); otherwise see
    /// [`Client::request`].
    pub fn swap(&mut self, path: &str) -> Result<Swapped, ClientError> {
        match self.request(&Request::Swap { path: path.into() })? {
            Response::Swapped { epoch, n, m } => Ok(Swapped { epoch, n, m }),
            Response::SwapRejected { detail } => Err(ClientError::SwapRejected { detail }),
            other => Err(unexpected("Swapped", other)),
        }
    }

    /// Asks the daemon to stop.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", other)),
        }
    }
}

/// Maps an off-contract response to the right [`ClientError`]: typed
/// daemon-side failures stay typed; anything else is `Unexpected`.
fn unexpected(expected: &'static str, got: Response) -> ClientError {
    match got {
        Response::Rejected { code, detail } => ClientError::Rejected(Rejection { code, detail }),
        Response::ServerError { detail } => ClientError::Server { detail },
        Response::ProtocolRejected { detail } => ClientError::ProtocolRejected { detail },
        other => ClientError::Unexpected {
            expected,
            got: format!("{other:?}"),
        },
    }
}

/// A pipelined v2 client: decoupled `send`/`recv` with out-of-order
/// completion. Not `Sync` — one thread drives one connection; spin up more
/// connections for more concurrency (the loadgen does).
#[derive(Debug)]
pub struct PipelinedClient {
    stream: TcpStream,
    next_id: u64,
    max_inflight: u32,
    graphs: Vec<GraphInfo>,
    /// Responses that arrived while waiting for a different ticket.
    stashed: HashMap<u64, Response>,
}

impl PipelinedClient {
    /// Connects with the v2 handshake and no timeouts — shorthand for
    /// `ClientBuilder::new().connect_pipelined(addr)`.
    ///
    /// # Errors
    ///
    /// See [`ClientBuilder::connect_pipelined`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        ClientBuilder::new().connect_pipelined(addr)
    }

    /// The served-graph catalog from the handshake.
    pub fn catalog(&self) -> &[GraphInfo] {
        &self.graphs
    }

    /// The in-flight cap the daemon advertised. Sending past it does not
    /// error — the daemon simply stops reading until answers drain, and
    /// TCP backpressure eventually blocks `send`.
    pub fn max_inflight(&self) -> u32 {
        self.max_inflight
    }

    /// Writes one request frame routed to `graph` and returns the ticket
    /// its answer will carry. Does not wait for any response.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn send(&mut self, graph: u32, req: &Request) -> Result<Ticket, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_v2_request(id, graph, req))?;
        Ok(Ticket { id })
    }

    /// Blocks until `ticket`'s answer arrives, stashing any other
    /// responses that complete first (they stay redeemable).
    ///
    /// # Errors
    ///
    /// Transport/codec failures.
    pub fn recv(&mut self, ticket: Ticket) -> Result<Response, ClientError> {
        loop {
            if let Some(resp) = self.stashed.remove(&ticket.id) {
                return Ok(resp);
            }
            let (id, resp) = self.read_one()?;
            if id == ticket.id {
                return Ok(resp);
            }
            self.stashed.insert(id, resp);
        }
    }

    /// Returns the next completed response — stashed arrivals first, then
    /// whatever the daemon answers next — with the `request_id` it
    /// carried. This is how out-of-order completion is observed.
    ///
    /// # Errors
    ///
    /// Transport/codec failures.
    pub fn recv_any(&mut self) -> Result<(u64, Response), ClientError> {
        if let Some(&id) = self.stashed.keys().next() {
            let resp = self.stashed.remove(&id).expect("key just observed");
            return Ok((id, resp));
        }
        self.read_one()
    }

    fn read_one(&mut self) -> Result<(u64, Response), ClientError> {
        let payload = read_payload(&mut self.stream)?;
        Ok(crate::wire::decode_v2_response(&payload)?)
    }
}
