//! [`ServedClient`]: the Unix-socket client for a `bcc-served` daemon,
//! mirroring the in-process [`bcc_core::stream::StreamClient`] API.

use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use bcc_core::config::{EngineConfig, Priority};
use bcc_core::stream::StreamReport;
use bcc_core::telemetry::MetricsSnapshot;

use crate::wire::{
    recv_msg, send_msg, ClientMsg, ServerMsg, WireError, WireOutcome, WireRequest, WIRE_SCHEMA,
};

/// A connected, authenticated session with a `bcc-served` daemon.
///
/// The method surface deliberately mirrors the in-process
/// [`bcc_core::stream::StreamClient`]: [`submit`](ServedClient::submit) /
/// [`submit_with_deadline`](ServedClient::submit_with_deadline) return a
/// ticket, [`poll`](ServedClient::poll) is the non-blocking check,
/// [`wait`](ServedClient::wait) / [`wait_timeout`](ServedClient::wait_timeout)
/// block, and [`shutdown`](ServedClient::shutdown) drains the daemon and
/// returns its final deterministic [`StreamReport`]. Engine faults arrive
/// as [`WireError::Remote`] carrying the same typed codes the in-process
/// [`bcc_core::Error`] spells.
///
/// Each connection speaks one tenant (named at
/// [`connect`](ServedClient::connect)); the daemon schedules the tenant's
/// work under the WFQ class reported by [`class`](ServedClient::class).
/// The protocol itself is one request / one response per frame, so a
/// client is used from one thread; open more connections for parallelism.
#[derive(Debug)]
pub struct ServedClient {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    tenant: String,
    class: Priority,
    config: EngineConfig,
}

impl ServedClient {
    /// Connects to the daemon's socket and performs the `bcc-wire/v1`
    /// handshake, authenticating as `tenant`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the socket cannot be reached,
    /// [`WireError::UnsupportedSchema`] on a protocol-version mismatch,
    /// [`WireError::Remote`] when the daemon rejects the tenant, plus the
    /// usual framing errors.
    pub fn connect(path: impl AsRef<Path>, tenant: &str) -> Result<Self, WireError> {
        let stream = UnixStream::connect(path)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = ServedClient {
            reader,
            writer,
            tenant: tenant.to_string(),
            class: Priority::Bulk,
            config: EngineConfig::default(),
        };
        let hello = ClientMsg::Hello {
            schema: WIRE_SCHEMA.to_string(),
            tenant: tenant.to_string(),
        };
        match client.call(&hello)? {
            ServerMsg::Hello {
                schema,
                tenant: granted,
                class,
                config,
            } => {
                if schema != WIRE_SCHEMA {
                    return Err(WireError::UnsupportedSchema { found: schema });
                }
                if granted != tenant {
                    return Err(WireError::Protocol {
                        detail: format!(
                            "handshake granted tenant `{granted}`, asked for `{tenant}`"
                        ),
                    });
                }
                client.class = class;
                client.config = config;
                Ok(client)
            }
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// The tenant this connection authenticated as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The WFQ class the daemon assigned this tenant.
    pub fn class(&self) -> Priority {
        self.class
    }

    /// The serving engine's effective configuration, as reported in the
    /// handshake — the same `bcc-engine-config/v2` document the in-process
    /// builders consume.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Submits a request; returns its ticket.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] when the daemon refuses admission (e.g.
    /// `overloaded`, `quota-exceeded`), or a transport error.
    pub fn submit(&mut self, request: WireRequest) -> Result<u64, WireError> {
        self.submit_inner(request, None)
    }

    /// Submits a request with a relative deadline; returns its ticket.
    ///
    /// # Errors
    ///
    /// As [`submit`](ServedClient::submit), plus `deadline-infeasible`
    /// when the daemon's admission check predicts the deadline cannot be
    /// met.
    pub fn submit_with_deadline(
        &mut self,
        request: WireRequest,
        deadline: Duration,
    ) -> Result<u64, WireError> {
        self.submit_inner(
            request,
            Some(deadline.as_millis().min(u64::MAX as u128) as u64),
        )
    }

    fn submit_inner(
        &mut self,
        request: WireRequest,
        deadline_ms: Option<u64>,
    ) -> Result<u64, WireError> {
        match self.call(&ClientMsg::Submit {
            request,
            deadline_ms,
        })? {
            ServerMsg::Submitted { ticket } => Ok(ticket),
            ServerMsg::Failed { fault, .. } => Err(WireError::Remote(fault)),
            other => Err(unexpected("Submitted", &other)),
        }
    }

    /// Non-blocking completion check: `Ok(Some(outcome))` when the ticket
    /// finished, `Ok(None)` while it is still queued or executing.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] when the submission failed (the typed engine
    /// fault), or a transport error.
    pub fn poll(&mut self, ticket: u64) -> Result<Option<WireOutcome>, WireError> {
        match self.call(&ClientMsg::Poll { ticket })? {
            ServerMsg::Pending { .. } => Ok(None),
            ServerMsg::Done { outcome, .. } => Ok(Some(outcome)),
            ServerMsg::Failed { fault, .. } => Err(WireError::Remote(fault)),
            other => Err(unexpected("Pending/Done/Failed", &other)),
        }
    }

    /// Blocks until the ticket completes.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] when the submission failed, or a transport
    /// error.
    pub fn wait(&mut self, ticket: u64) -> Result<WireOutcome, WireError> {
        self.wait_inner(ticket, None)
    }

    /// Blocks until the ticket completes or `timeout` elapses. On timeout
    /// the error is [`WireError::Remote`] with code `wait-timeout` and the
    /// ticket stays redeemable — the submission keeps running.
    ///
    /// # Errors
    ///
    /// As [`wait`](ServedClient::wait), plus the `wait-timeout` fault.
    pub fn wait_timeout(
        &mut self,
        ticket: u64,
        timeout: Duration,
    ) -> Result<WireOutcome, WireError> {
        self.wait_inner(
            ticket,
            Some(timeout.as_millis().min(u64::MAX as u128) as u64),
        )
    }

    fn wait_inner(
        &mut self,
        ticket: u64,
        timeout_ms: Option<u64>,
    ) -> Result<WireOutcome, WireError> {
        match self.call(&ClientMsg::Wait { ticket, timeout_ms })? {
            ServerMsg::Done { outcome, .. } => Ok(outcome),
            ServerMsg::Failed { fault, .. } => Err(WireError::Remote(fault)),
            other => Err(unexpected("Done/Failed", &other)),
        }
    }

    /// Fetches a live `bcc-metrics/v1` snapshot from the daemon.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Remote`] on a daemon fault.
    pub fn telemetry_snapshot(&mut self) -> Result<MetricsSnapshot, WireError> {
        match self.call(&ClientMsg::TelemetrySnapshot)? {
            ServerMsg::Telemetry { snapshot } => Ok(snapshot),
            other => Err(unexpected("Telemetry", &other)),
        }
    }

    /// Fetches the Chrome trace-event timeline accumulated so far, as a
    /// JSON document loadable in `chrome://tracing` / Perfetto.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Remote`] on a daemon fault.
    pub fn chrome_trace(&mut self) -> Result<String, WireError> {
        match self.call(&ClientMsg::ChromeTrace)? {
            ServerMsg::Trace { json } => Ok(json),
            other => Err(unexpected("Trace", &other)),
        }
    }

    /// Asks the daemon to stop accepting work, drain everything in
    /// flight, and exit; blocks until the drain finishes and returns the
    /// daemon's final deterministic [`StreamReport`].
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Remote`] on a daemon fault.
    pub fn shutdown(mut self) -> Result<StreamReport, WireError> {
        match self.call(&ClientMsg::Shutdown)? {
            ServerMsg::Report { report } => Ok(report),
            other => Err(unexpected("Report", &other)),
        }
    }

    /// One request / one response.
    fn call(&mut self, msg: &ClientMsg) -> Result<ServerMsg, WireError> {
        send_msg(&mut self.writer, msg)?;
        let reply: ServerMsg = recv_msg(&mut self.reader)?;
        if let ServerMsg::Fault { fault } = reply {
            return Err(WireError::Remote(fault));
        }
        Ok(reply)
    }
}

fn unexpected(expected: &str, got: &ServerMsg) -> WireError {
    WireError::Protocol {
        detail: format!("expected {expected}, got {got:?}"),
    }
}
