//! The `bcc-wire/v1` protocol: length-prefixed JSON frames over a byte
//! stream, and the message vocabulary both ends speak.
//!
//! See `docs/PROTOCOL.md` for the normative specification. In short:
//!
//! * **Framing.** Every message is one frame: a 4-byte big-endian length
//!   `L ≤` [`MAX_FRAME_LEN`], then exactly `L` bytes of UTF-8 JSON. A
//!   reader that sees an oversized length, a truncated prefix or a
//!   truncated body reports a typed [`WireError`] and must drop the
//!   connection — framing errors are not recoverable mid-stream.
//! * **Handshake.** The client's first frame is [`ClientMsg::Hello`]
//!   carrying the protocol schema tag ([`WIRE_SCHEMA`]) and the tenant
//!   name; the server answers [`ServerMsg::Hello`] (echoing the engine's
//!   effective [`EngineConfig`] — one config schema, shared verbatim with
//!   the in-process builders) or [`ServerMsg::Fault`] and closes.
//! * **Payloads.** Requests and responses cross the wire as explicit
//!   mirror types ([`WireRequest`], [`WireResponse`]) that carry raw edge
//!   and arc lists, never trusted adjacency structure: the receiving side
//!   revalidates every graph with [`WireGraph::to_graph`] /
//!   [`WireFlowInstance::to_instance`], so a malformed payload is a typed
//!   fault, not a panic inside a worker.
//!
//! LP requests are **not** expressible in `bcc-wire/v1`: their instances
//! carry `±∞` bounds, which JSON cannot represent (the in-tree serde shim
//! rejects non-finite floats by design). A future `bcc-wire/v2` can add an
//! `Lp` tag with an explicit infinity encoding; per the compatibility
//! rules, adding a message or request tag is exactly what a version bump
//! is for.

use std::io::{Read, Write};

use bcc_core::config::{EngineConfig, Priority};
use bcc_core::stream::StreamReport;
use bcc_core::telemetry::MetricsSnapshot;
use bcc_core::{Error, Request, Response, RoundReport};
use bcc_flow::{McmfOptions, WeightStrategyChoice};
use bcc_graph::{DiGraph, FlowInstance, Graph};
use serde::{Deserialize, Serialize};

/// The protocol version tag exchanged in the handshake.
pub const WIRE_SCHEMA: &str = "bcc-wire/v1";

/// Hard bound on one frame's payload length. Large enough for any
/// laboratory graph; small enough that a corrupt length prefix cannot make
/// a reader attempt a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Everything that can go wrong on the wire, typed. Framing and decoding
/// problems never panic and never hang: they surface here, and the
/// connection is dropped.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// An OS-level I/O failure (broken pipe, refused connection, ...).
    Io {
        /// Display form of the underlying `std::io::Error`.
        detail: String,
    },
    /// The peer closed the connection where a frame was required.
    Closed,
    /// A read timeout elapsed at a frame boundary (no bytes of the next
    /// frame had arrived). Only surfaces on sockets with a read timeout
    /// configured — the daemon uses it to poll its shutdown flag between
    /// frames. A timeout *inside* a frame keeps blocking instead: the
    /// prefix promised more bytes, and abandoning them would desync the
    /// stream.
    TimedOut,
    /// A frame announced a length beyond [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The announced length.
        len: u64,
    },
    /// The stream ended inside a length prefix or frame body.
    Truncated {
        /// Bytes the frame (or prefix) still owed.
        missing: usize,
    },
    /// The frame body was not valid UTF-8 JSON for the expected message
    /// type (including unknown message tags).
    Malformed {
        /// What the decoder rejected.
        detail: String,
    },
    /// A structurally valid message carried an invalid payload (edge out
    /// of range, self-loop, non-positive weight or capacity, ...).
    InvalidPayload {
        /// Which invariant the payload violated.
        detail: String,
    },
    /// The peer speaks a different protocol version.
    UnsupportedSchema {
        /// The schema tag the peer presented.
        found: String,
    },
    /// The peer sent a message that is valid on its own but wrong for the
    /// protocol state (e.g. a response type the request cannot produce).
    Protocol {
        /// What was expected and what arrived.
        detail: String,
    },
    /// The daemon reported a fault — an engine error (typed by
    /// [`WireFault::code`]) or a protocol-level rejection.
    Remote(WireFault),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io { detail } => write!(f, "i/o: {detail}"),
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::TimedOut => write!(f, "read timed out at a frame boundary"),
            WireError::FrameTooLarge { len } => write!(
                f,
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"
            ),
            WireError::Truncated { missing } => {
                write!(f, "truncated frame: {missing} bytes missing")
            }
            WireError::Malformed { detail } => write!(f, "malformed message: {detail}"),
            WireError::InvalidPayload { detail } => write!(f, "invalid payload: {detail}"),
            WireError::UnsupportedSchema { found } => write!(
                f,
                "unsupported wire schema `{found}` (this end speaks `{WIRE_SCHEMA}`)"
            ),
            WireError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            WireError::Remote(fault) => {
                write!(f, "remote fault [{}]: {}", fault.code, fault.message)
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds
/// [`MAX_FRAME_LEN`]; [`WireError::Io`] on write failure.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, returning `Ok(None)` on a clean end-of-stream at a
/// frame boundary (the peer hung up between messages).
///
/// # Errors
///
/// [`WireError::Truncated`] when the stream ends inside the prefix or the
/// body, [`WireError::FrameTooLarge`] on an oversized announced length
/// (the reader must drop the connection — it cannot resync),
/// [`WireError::Io`] on any other read failure.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    missing: prefix.len() - filled,
                })
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(WireError::TimedOut)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match reader.read(&mut payload[got..]) {
            Ok(0) => return Err(WireError::Truncated { missing: len - got }),
            Ok(k) => got += k,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(payload))
}

/// Serializes a message into one frame payload (UTF-8 JSON).
///
/// # Errors
///
/// [`WireError::Malformed`] when the value cannot be represented in JSON
/// (e.g. a non-finite float).
pub fn encode_msg<T: Serialize>(msg: &T) -> Result<Vec<u8>, WireError> {
    serde_json::to_string(msg)
        .map(String::into_bytes)
        .map_err(|e| WireError::Malformed {
            detail: e.to_string(),
        })
}

/// Deserializes one frame payload into a message.
///
/// # Errors
///
/// [`WireError::Malformed`] on non-UTF-8 bytes, invalid JSON, or a JSON
/// shape that does not decode as `T` (including unknown message tags).
pub fn decode_msg<T: Deserialize>(payload: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(payload).map_err(|e| WireError::Malformed {
        detail: format!("frame is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })
}

/// Writes one message as one frame.
///
/// # Errors
///
/// The union of [`encode_msg`] and [`write_frame`] errors.
pub fn send_msg<T: Serialize>(writer: &mut impl Write, msg: &T) -> Result<(), WireError> {
    write_frame(writer, &encode_msg(msg)?)
}

/// Reads one frame and decodes it, treating end-of-stream as
/// [`WireError::Closed`] (use [`read_frame`] directly where a clean
/// hang-up is an expected outcome).
///
/// # Errors
///
/// The union of [`read_frame`] and [`decode_msg`] errors, plus
/// [`WireError::Closed`].
pub fn recv_msg<T: Deserialize>(reader: &mut impl Read) -> Result<T, WireError> {
    match read_frame(reader)? {
        Some(payload) => decode_msg(&payload),
        None => Err(WireError::Closed),
    }
}

// ---------------------------------------------------------------------------
// Payload mirrors
// ---------------------------------------------------------------------------

/// An undirected graph on the wire: vertex count plus raw `(u, v, weight)`
/// edges. Adjacency is rebuilt — and every edge revalidated — on receipt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireGraph {
    /// Number of vertices.
    pub n: usize,
    /// The edges as `(u, v, weight)` triples.
    pub edges: Vec<(usize, usize, f64)>,
}

impl WireGraph {
    /// Mirrors an in-process graph.
    pub fn from_graph(graph: &Graph) -> Self {
        WireGraph {
            n: graph.n(),
            edges: graph.edges().iter().map(|e| (e.u, e.v, e.weight)).collect(),
        }
    }

    /// Revalidates and rebuilds the in-process graph.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] on an out-of-range endpoint, a
    /// self-loop, or a non-finite / non-positive weight — the same
    /// invariants [`Graph::add_edge`] would otherwise enforce by panicking.
    pub fn to_graph(&self) -> Result<Graph, WireError> {
        for &(u, v, weight) in &self.edges {
            if u >= self.n || v >= self.n {
                return Err(WireError::InvalidPayload {
                    detail: format!("edge ({u}, {v}) out of range for n = {}", self.n),
                });
            }
            if u == v {
                return Err(WireError::InvalidPayload {
                    detail: format!("self-loop at vertex {u}"),
                });
            }
            if !(weight.is_finite() && weight > 0.0) {
                return Err(WireError::InvalidPayload {
                    detail: format!("edge ({u}, {v}) has invalid weight {weight}"),
                });
            }
        }
        Ok(Graph::from_edges(self.n, self.edges.iter().copied()))
    }
}

/// One directed arc on the wire (4 fields; the shim's tuple support stops
/// at triples, and named fields read better in traces anyway).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireArc {
    /// Tail vertex.
    pub from: usize,
    /// Head vertex.
    pub to: usize,
    /// Capacity (must be positive).
    pub capacity: i64,
    /// Cost (may be negative).
    pub cost: i64,
}

/// A min-cost max-flow instance on the wire: raw arcs plus terminals,
/// revalidated on receipt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireFlowInstance {
    /// Number of vertices.
    pub n: usize,
    /// The arcs.
    pub arcs: Vec<WireArc>,
    /// Source vertex.
    pub source: usize,
    /// Sink vertex.
    pub sink: usize,
}

impl WireFlowInstance {
    /// Mirrors an in-process instance.
    pub fn from_instance(instance: &FlowInstance) -> Self {
        WireFlowInstance {
            n: instance.graph.n(),
            arcs: instance
                .graph
                .arcs()
                .iter()
                .map(|a| WireArc {
                    from: a.from,
                    to: a.to,
                    capacity: a.capacity,
                    cost: a.cost,
                })
                .collect(),
            source: instance.source,
            sink: instance.sink,
        }
    }

    /// Revalidates and rebuilds the in-process instance.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] on out-of-range endpoints or
    /// terminals, self-loops, non-positive capacities, or equal terminals.
    pub fn to_instance(&self) -> Result<FlowInstance, WireError> {
        for arc in &self.arcs {
            if arc.from >= self.n || arc.to >= self.n {
                return Err(WireError::InvalidPayload {
                    detail: format!(
                        "arc ({}, {}) out of range for n = {}",
                        arc.from, arc.to, self.n
                    ),
                });
            }
            if arc.from == arc.to {
                return Err(WireError::InvalidPayload {
                    detail: format!("self-loop arc at vertex {}", arc.from),
                });
            }
            if arc.capacity <= 0 {
                return Err(WireError::InvalidPayload {
                    detail: format!(
                        "arc ({}, {}) has non-positive capacity {}",
                        arc.from, arc.to, arc.capacity
                    ),
                });
            }
        }
        if self.source >= self.n || self.sink >= self.n || self.source == self.sink {
            return Err(WireError::InvalidPayload {
                detail: format!(
                    "invalid terminals source {} / sink {} for n = {}",
                    self.source, self.sink, self.n
                ),
            });
        }
        let graph = DiGraph::from_arcs(
            self.n,
            self.arcs.iter().map(|a| (a.from, a.to, a.capacity, a.cost)),
        );
        Ok(FlowInstance::new(graph, self.source, self.sink))
    }
}

/// [`McmfOptions`] on the wire, with the strategy spelled as a string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireMcmfOptions {
    /// Seed for the cost perturbation and solver randomness.
    pub seed: u64,
    /// Additive accuracy the LP is solved to before rounding.
    pub lp_epsilon: f64,
    /// Weight strategy: `"lewis"` or `"uniform"`.
    pub strategy: String,
    /// Solve SDD systems through the full sparsifier pipeline.
    pub full_laplacian_pipeline: bool,
    /// Use the paper's worst-case penalty constants.
    pub paper_constants: bool,
    /// Hard cap on Newton steps.
    pub max_newton_steps: usize,
}

impl WireMcmfOptions {
    /// Mirrors in-process options.
    pub fn from_options(options: &McmfOptions) -> Self {
        WireMcmfOptions {
            seed: options.seed,
            lp_epsilon: options.lp_epsilon,
            strategy: match options.strategy {
                WeightStrategyChoice::Lewis => "lewis".to_string(),
                WeightStrategyChoice::Uniform => "uniform".to_string(),
            },
            full_laplacian_pipeline: options.full_laplacian_pipeline,
            paper_constants: options.paper_constants,
            max_newton_steps: options.max_newton_steps,
        }
    }

    /// Rebuilds the in-process options.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] on an unknown strategy name.
    pub fn to_options(&self) -> Result<McmfOptions, WireError> {
        let strategy = match self.strategy.as_str() {
            "lewis" => WeightStrategyChoice::Lewis,
            "uniform" => WeightStrategyChoice::Uniform,
            other => {
                return Err(WireError::InvalidPayload {
                    detail: format!("unknown weight strategy `{other}`"),
                })
            }
        };
        Ok(McmfOptions {
            seed: self.seed,
            lp_epsilon: self.lp_epsilon,
            strategy,
            full_laplacian_pipeline: self.full_laplacian_pipeline,
            paper_constants: self.paper_constants,
            max_newton_steps: self.max_newton_steps,
        })
    }
}

/// A pipeline request on the wire. LP requests are not expressible in v1
/// (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireRequest {
    /// Theorem 1.2: spectral sparsification.
    Sparsify {
        /// The input graph.
        graph: WireGraph,
        /// Target accuracy.
        epsilon: f64,
    },
    /// Theorem 1.3: Laplacian solve.
    Laplacian {
        /// The input graph.
        graph: WireGraph,
        /// Right-hand side.
        b: Vec<f64>,
        /// Solve accuracy; `None` = the engine's default.
        epsilon: Option<f64>,
    },
    /// Theorem 1.1: min-cost max-flow.
    MinCostMaxFlow {
        /// The flow instance.
        instance: WireFlowInstance,
        /// Solver options; `None` = laboratory defaults.
        options: Option<WireMcmfOptions>,
    },
}

impl WireRequest {
    /// Mirrors an in-process request; `None` for LP requests, which
    /// `bcc-wire/v1` cannot express.
    pub fn from_request(request: &Request) -> Option<Self> {
        match request {
            Request::Sparsify { graph, epsilon } => Some(WireRequest::Sparsify {
                graph: WireGraph::from_graph(graph),
                epsilon: *epsilon,
            }),
            Request::Laplacian { graph, b, epsilon } => Some(WireRequest::Laplacian {
                graph: WireGraph::from_graph(graph),
                b: b.clone(),
                epsilon: *epsilon,
            }),
            Request::MinCostMaxFlow { instance, options } => Some(WireRequest::MinCostMaxFlow {
                instance: WireFlowInstance::from_instance(instance),
                options: options.as_ref().map(WireMcmfOptions::from_options),
            }),
            Request::Lp { .. } => None,
        }
    }

    /// Revalidates and rebuilds the in-process request.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidPayload`] when any carried graph, instance or
    /// option fails validation.
    pub fn into_request(self) -> Result<Request, WireError> {
        Ok(match self {
            WireRequest::Sparsify { graph, epsilon } => Request::Sparsify {
                graph: graph.to_graph()?,
                epsilon,
            },
            WireRequest::Laplacian { graph, b, epsilon } => Request::Laplacian {
                graph: graph.to_graph()?,
                b,
                epsilon,
            },
            WireRequest::MinCostMaxFlow { instance, options } => Request::MinCostMaxFlow {
                instance: instance.to_instance()?,
                options: options.map(|o| o.to_options()).transpose()?,
            },
        })
    }
}

/// A pipeline response on the wire — the full result values, so a remote
/// client sees bit-identical numbers to an in-process caller (JSON floats
/// round-trip exactly under the shim's shortest-representation printer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireResponse {
    /// Result of a sparsify request.
    Sparsify {
        /// The sparsifier.
        sparsifier: WireGraph,
        /// Originating input-edge index of each sparsifier edge.
        edge_origin: Vec<usize>,
        /// Announcing vertex of each sparsifier edge.
        added_by: Vec<usize>,
    },
    /// Result of a Laplacian request.
    Laplacian {
        /// The approximate solution.
        solution: Vec<f64>,
        /// Chebyshev iterations performed.
        iterations: usize,
        /// Rounds charged (excluding preprocessing).
        rounds: u64,
    },
    /// Result of a min-cost max-flow request.
    MinCostMaxFlow {
        /// Integral flow on every arc.
        flow: Vec<i64>,
        /// Flow value.
        value: i64,
        /// Total cost.
        cost: i64,
        /// Fractional edge flows before rounding.
        fractional: Vec<f64>,
        /// Whether the rounded flow passed the feasibility check.
        rounded_feasible: bool,
        /// Path-following iterations of the LP solver.
        path_iterations: usize,
        /// Gram (Laplacian) solves performed.
        gram_solves: usize,
        /// Total rounds charged.
        rounds: u64,
    },
}

impl WireResponse {
    /// Mirrors an in-process response; `None` for LP responses (no LP
    /// request can arrive over v1).
    pub fn from_response(response: &Response) -> Option<Self> {
        match response {
            Response::Sparsify(out) => Some(WireResponse::Sparsify {
                sparsifier: WireGraph::from_graph(&out.sparsifier),
                edge_origin: out.edge_origin.clone(),
                added_by: out.added_by.clone(),
            }),
            Response::Laplacian(solve) => Some(WireResponse::Laplacian {
                solution: solve.solution.clone(),
                iterations: solve.iterations,
                rounds: solve.rounds,
            }),
            Response::MinCostMaxFlow(result) => Some(WireResponse::MinCostMaxFlow {
                flow: result.flow.flow.clone(),
                value: result.flow.value,
                cost: result.flow.cost,
                fractional: result.fractional.clone(),
                rounded_feasible: result.rounded_feasible,
                path_iterations: result.path_iterations,
                gram_solves: result.gram_solves,
                rounds: result.rounds,
            }),
            Response::Lp(_) => None,
        }
    }
}

/// A completed submission on the wire: the response value plus the
/// structured per-phase round accounting, mirroring
/// [`bcc_core::Outcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireOutcome {
    /// The computed result.
    pub value: WireResponse,
    /// Per-phase round accounting of the run.
    pub report: RoundReport,
}

/// A typed fault on the wire: a stable machine-readable `code` plus the
/// human-readable display form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireFault {
    /// Stable fault code (see [`WireFault::from_engine_error`] and the
    /// protocol-level codes in `docs/PROTOCOL.md`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl WireFault {
    /// A fault with the given code and message.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> Self {
        WireFault {
            code: code.into(),
            message: message.into(),
        }
    }

    /// Maps an engine [`Error`] to its stable wire code, preserving the
    /// display form as the message.
    pub fn from_engine_error(error: &Error) -> Self {
        let code = match error {
            Error::Runtime(_) => "runtime",
            Error::Sparsifier(_) => "sparsifier",
            Error::Laplacian(_) => "laplacian",
            Error::Lp(_) => "lp",
            Error::Flow(_) => "flow",
            Error::InvalidEpsilon { .. } => "invalid-epsilon",
            Error::Overloaded { .. } => "overloaded",
            Error::DeadlineExceeded { .. } => "deadline-exceeded",
            Error::DeadlineInfeasible { .. } => "deadline-infeasible",
            Error::WaitTimeout { .. } => "wait-timeout",
            Error::QuotaExceeded { .. } => "quota-exceeded",
        };
        WireFault::new(code, error.to_string())
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Client → server messages. The first message on a connection must be
/// [`ClientMsg::Hello`]; everything else requires an authenticated tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Handshake: the protocol version and the tenant name.
    Hello {
        /// Must equal [`WIRE_SCHEMA`].
        schema: String,
        /// The tenant this connection authenticates as.
        tenant: String,
    },
    /// Submit a request, optionally with a relative deadline.
    Submit {
        /// The request payload.
        request: WireRequest,
        /// Relative deadline in milliseconds; `None` = no deadline.
        deadline_ms: Option<u64>,
    },
    /// Non-blocking completion check of one ticket.
    Poll {
        /// The ticket index returned by [`ServerMsg::Submitted`].
        ticket: u64,
    },
    /// Blocking wait for one ticket, optionally bounded.
    Wait {
        /// The ticket index returned by [`ServerMsg::Submitted`].
        ticket: u64,
        /// Wait bound in milliseconds; `None` = wait indefinitely.
        timeout_ms: Option<u64>,
    },
    /// Fetch a live metrics snapshot (`bcc-metrics/v1`).
    TelemetrySnapshot,
    /// Fetch the Chrome trace-event timeline accumulated so far.
    ChromeTrace,
    /// Stop accepting new work, drain everything in flight, then answer
    /// with the final [`ServerMsg::Report`] and exit.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Handshake answer: the tenant's scheduling class and the engine's
    /// effective config — the same `bcc-engine-config/v2` schema the
    /// in-process builders consume.
    Hello {
        /// Echoes [`WIRE_SCHEMA`].
        schema: String,
        /// The authenticated tenant.
        tenant: String,
        /// The tenant's WFQ class.
        class: Priority,
        /// The serving engine's effective configuration.
        config: EngineConfig,
    },
    /// A submission was admitted under this ticket index.
    Submitted {
        /// Per-scope submission index; redeem with poll/wait.
        ticket: u64,
    },
    /// The ticket is still queued or executing (poll only).
    Pending {
        /// The polled ticket.
        ticket: u64,
    },
    /// The ticket completed successfully.
    Done {
        /// The completed ticket.
        ticket: u64,
        /// Result value plus round accounting.
        outcome: WireOutcome,
    },
    /// The ticket failed, or the request was refused before admission.
    Failed {
        /// The ticket, when one was assigned.
        ticket: Option<u64>,
        /// The typed fault.
        fault: WireFault,
    },
    /// Answer to [`ClientMsg::TelemetrySnapshot`].
    Telemetry {
        /// The live metrics snapshot.
        snapshot: MetricsSnapshot,
    },
    /// Answer to [`ClientMsg::ChromeTrace`].
    Trace {
        /// The trace-event JSON document.
        json: String,
    },
    /// Final answer to [`ClientMsg::Shutdown`], sent after the drain: the
    /// deterministic report of everything the engine served.
    Report {
        /// The engine's final stream report.
        report: StreamReport,
    },
    /// A connection-level fault (handshake rejection, malformed frame,
    /// unknown tenant, ...). The server drops the connection after.
    Fault {
        /// The typed fault.
        fault: WireFault,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::generators;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn wire_graph_round_trips_and_revalidates() {
        let graph = generators::grid(3, 4);
        let wire = WireGraph::from_graph(&graph);
        let back = wire.to_graph().unwrap();
        assert_eq!(back, graph);

        let bad = WireGraph {
            n: 2,
            edges: vec![(0, 2, 1.0)],
        };
        assert!(matches!(
            bad.to_graph(),
            Err(WireError::InvalidPayload { .. })
        ));
        let loopy = WireGraph {
            n: 2,
            edges: vec![(1, 1, 1.0)],
        };
        assert!(loopy.to_graph().is_err());
        let negative = WireGraph {
            n: 2,
            edges: vec![(0, 1, -1.0)],
        };
        assert!(negative.to_graph().is_err());
    }

    #[test]
    fn requests_mirror_in_process_requests() {
        let graph = generators::grid(3, 3);
        let mut b = vec![0.0; 9];
        b[0] = 1.0;
        b[8] = -1.0;
        let request = Request::laplacian(graph, b);
        let wire = WireRequest::from_request(&request).unwrap();
        let json = serde_json::to_string(&wire).unwrap();
        let decoded: WireRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, wire);
        // `Request` has no `PartialEq`; mirroring the revalidated request
        // back onto the wire must reproduce the original message exactly.
        let rebuilt = decoded.into_request().unwrap();
        assert_eq!(WireRequest::from_request(&rebuilt).unwrap(), wire);
    }

    #[test]
    fn client_messages_round_trip_through_json() {
        let msgs = vec![
            ClientMsg::Hello {
                schema: WIRE_SCHEMA.to_string(),
                tenant: "acme".to_string(),
            },
            ClientMsg::Poll { ticket: 3 },
            ClientMsg::Wait {
                ticket: 4,
                timeout_ms: Some(250),
            },
            ClientMsg::TelemetrySnapshot,
            ClientMsg::ChromeTrace,
            ClientMsg::Shutdown,
        ];
        for msg in msgs {
            let bytes = encode_msg(&msg).unwrap();
            let back: ClientMsg = decode_msg(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn engine_error_codes_are_stable() {
        let fault = WireFault::from_engine_error(&Error::Overloaded { capacity: 8 });
        assert_eq!(fault.code, "overloaded");
        let fault = WireFault::from_engine_error(&Error::QuotaExceeded {
            tenant: "acme".to_string(),
            quota: 2,
        });
        assert_eq!(fault.code, "quota-exceeded");
        assert!(fault.message.contains("acme"));
    }
}
