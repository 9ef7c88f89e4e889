//! The TCP front door: accept loop, per-connection pipelined workers,
//! per-tenant tick threads, cooperative shutdown.
//!
//! # Handshake
//!
//! The **first frame** of a connection must be a [`Request::Hello`]: the
//! daemon answers a headerless [`Response::Welcome`] (the handshake itself
//! carries no routing header) and hands the connection to the pipelined
//! worker. Any other first frame — another request, a malformed payload or
//! an unsupported version — is answered with one
//! [`Response::ProtocolRejected`], counted in `protocol_errors`, and the
//! connection closes. Nothing of it reaches a tenant.
//!
//! # Pipelined v2 connections
//!
//! A v2 connection runs one reader (the connection thread itself), one
//! executor thread per served graph, and one writer thread, joined by a
//! bounded response queue:
//!
//! ```text
//! reader ──(graph 0 queue)── executor 0 ──┐
//!        ──(graph 1 queue)── executor 1 ──┼──(bounded)── writer
//!        ──(inline: Hello/unknown-graph/rejects)──┘
//! ```
//!
//! Per-graph queues preserve **per-graph FIFO** (admission order equals
//! application order within a tenant, which the replay audit relies on)
//! while letting responses from different graphs complete **out of
//! order** — a slow repair tick on graph 0 never delays a lookup answer
//! on graph 1. Every response carries the originating `request_id`, so
//! clients re-associate answers however they arrive.
//!
//! Backpressure is structural, not advisory: the reader blocks once
//! `max_inflight` requests are unanswered, which stops it draining the
//! socket and pushes back on the peer through TCP flow control; the
//! response queue is bounded by the same cap, so a stalled peer can never
//! balloon daemon memory. After a write error the writer keeps *draining*
//! the queue without writing, so executors finishing late work never
//! block on a dead socket.
//!
//! # Transport policy
//!
//! * **Payload-level** protocol errors (bad opcode, truncated body, …) keep
//!   the connection alive — framing is still in sync, so the worker answers
//!   [`Response::ProtocolRejected`] and keeps reading. The reject is tagged
//!   with the frame's `request_id` when the header was readable, else with
//!   id 0.
//! * **Framing-level** errors (oversize/zero length declaration, EOF inside
//!   a frame) desynchronize the stream: the worker answers once and closes.
//! * Shutdown never blocks on idle readers: the handle keeps a registry of
//!   connection streams and `TcpStream::shutdown`s them, which wakes every
//!   blocked `read` with EOF.

use crate::error::{ProtocolError, WireError};
use crate::state::ServerCore;
use crate::wire::{
    decode_v2_request_header, encode_v2_response, read_frame, write_frame, Request, Response,
};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running daemon: owns the listener thread, connection workers and the
/// per-tenant background tickers over one shared [`ServerCore`].
#[derive(Debug)]
pub struct DaemonHandle {
    core: Arc<ServerCore>,
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
    tickers: Vec<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl DaemonHandle {
    /// Binds `127.0.0.1:0` (an OS-assigned port) and starts serving `core`.
    /// One tick thread is spawned per tenant whose config asks for one, so
    /// a slow repair on one graph never delays another graph's ticks.
    ///
    /// # Errors
    ///
    /// Propagates listener setup failures.
    pub fn spawn(core: ServerCore) -> io::Result<Self> {
        let core = Arc::new(core);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let core = Arc::clone(&core);
            let running = Arc::clone(&running);
            let conns = Arc::clone(&conns);
            let workers = Arc::clone(&workers);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if !running.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    if let Ok(clone) = stream.try_clone() {
                        conns.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
                    }
                    let core = Arc::clone(&core);
                    let running = Arc::clone(&running);
                    let conns = Arc::clone(&conns);
                    let worker = std::thread::spawn(move || {
                        serve_connection(&core, stream, &running, addr, &conns);
                    });
                    workers
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(worker);
                }
            })
        };

        let tickers = core
            .tenants()
            .iter()
            .enumerate()
            .filter_map(|(gid, tenant)| {
                tenant.config().tick_interval_ms.map(|interval| {
                    let core = Arc::clone(&core);
                    let running = Arc::clone(&running);
                    std::thread::spawn(move || {
                        while running.load(Ordering::SeqCst) {
                            core.tenants()[gid].tick();
                            std::thread::sleep(Duration::from_millis(interval));
                        }
                    })
                })
            })
            .collect();

        Ok(DaemonHandle {
            core,
            addr,
            running,
            conns,
            accept: Some(accept),
            tickers,
            workers,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving core — tests and the bench harness use this for
    /// in-process introspection (batch logs, state snapshots, manual ticks).
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// Stops accepting, wakes every blocked reader, and joins all daemon
    /// threads.
    pub fn shutdown(mut self) {
        stop(&self.running, self.addr, &self.conns);
        self.join_all();
    }

    /// Blocks until some client asks the daemon to stop (a `Shutdown`
    /// request), then joins all daemon threads. This is the standalone
    /// binary's serve loop.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept loop only exits after `stop` ran; finish the cleanup
        // (idempotent) and join the rest.
        stop(&self.running, self.addr, &self.conns);
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.tickers.drain(..) {
            let _ = h.join();
        }
        let drained: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in drained {
            let _ = h.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        // Best-effort stop without joining (joining here could deadlock if
        // a worker drops the handle); `shutdown` is the clean path.
        stop(&self.running, self.addr, &self.conns);
    }
}

/// Flips the running flag, closes every registered connection (waking
/// blocked reads with EOF) and pokes the listener so `accept` returns.
fn stop(running: &AtomicBool, addr: SocketAddr, conns: &Mutex<Vec<TcpStream>>) {
    if !running.swap(false, Ordering::SeqCst) {
        return;
    }
    for conn in conns.lock().unwrap_or_else(|e| e.into_inner()).drain(..) {
        let _ = conn.shutdown(Shutdown::Both);
    }
    let _ = TcpStream::connect(addr);
}

/// Reads the first frame: a `Hello` is answered with the `Welcome` and
/// opens the pipelined worker; anything else is answered with one
/// `ProtocolRejected` and closes the connection.
fn serve_connection(
    core: &ServerCore,
    stream: TcpStream,
    running: &AtomicBool,
    addr: SocketAddr,
    conns: &Mutex<Vec<TcpStream>>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let answer = match read_frame(&mut reader) {
        Ok(None) | Err(WireError::Io(_)) => return,
        Err(WireError::Protocol(e)) => rejected(&e),
        Ok(Some(payload)) => match Request::decode(&payload) {
            // The handshake is headerless in both directions; the routing
            // header starts with the first post-handshake frame.
            Ok(hello @ Request::Hello { .. }) => core.handle_on(0, &hello),
            Ok(_) => rejected(&ProtocolError::HandshakeRequired),
            Err(e) => rejected(&e),
        },
    };
    let welcomed = matches!(answer, Response::Welcome { .. });
    if !welcomed {
        core.note_protocol_error();
    }
    if write_frame(&mut writer, &answer.encode()).is_err() || !welcomed {
        // The registry holds a clone of this socket, so dropping the
        // stream would not close the connection.
        let _ = writer.shutdown(Shutdown::Both);
        return;
    }
    serve_v2(core, reader, writer, running, addr, conns);
}

/// The typed answer to a malformed frame or payload.
fn rejected(e: &ProtocolError) -> Response {
    Response::ProtocolRejected {
        detail: e.to_string(),
    }
}

/// Blocks until an in-flight slot is free, then takes one. Called only by
/// the reader — blocking here stops the socket drain, which is the
/// backpressure contract.
fn acquire_slot(slots: &(Mutex<usize>, Condvar), cap: usize) {
    let mut held = lock(&slots.0);
    while *held >= cap {
        held = slots.1.wait(held).unwrap_or_else(|e| e.into_inner());
    }
    *held += 1;
}

/// Returns an in-flight slot and wakes the reader if it was at the cap.
fn release_slot(slots: &(Mutex<usize>, Condvar)) {
    *lock(&slots.0) -= 1;
    slots.1.notify_one();
}

/// The pipelined v2 worker: reader (this thread) → per-graph executors →
/// bounded response queue → writer. See the module docs for the ordering
/// and backpressure contract.
fn serve_v2(
    core: &ServerCore,
    mut reader: BufReader<TcpStream>,
    writer: TcpStream,
    running: &AtomicBool,
    addr: SocketAddr,
    conns: &Mutex<Vec<TcpStream>>,
) {
    let cap = core.default_tenant().config().max_inflight.max(1) as usize;
    let ntenants = core.tenants().len();
    let slots = (Mutex::new(0usize), Condvar::new());
    let (resp_tx, resp_rx) = mpsc::sync_channel::<Vec<u8>>(cap);
    let mut stop_after = false;

    std::thread::scope(|s| {
        s.spawn(move || {
            let mut w = writer;
            let mut broken = false;
            for payload in resp_rx {
                // After a write error, keep draining so executors finishing
                // late work never block sending into a queue nobody reads.
                if !broken && write_frame(&mut w, &payload).is_err() {
                    broken = true;
                }
            }
        });

        let mut work_txs: Vec<mpsc::Sender<(u64, Request)>> = Vec::with_capacity(ntenants);
        for gid in 0..ntenants {
            let (tx, rx) = mpsc::channel::<(u64, Request)>();
            work_txs.push(tx);
            let resp_tx = resp_tx.clone();
            let slots = &slots;
            s.spawn(move || {
                for (rid, req) in rx {
                    let resp = core.handle_on(gid as u32, &req);
                    let _ = resp_tx.send(encode_v2_response(rid, &resp));
                    release_slot(slots);
                }
            });
        }

        loop {
            if !running.load(Ordering::SeqCst) {
                break;
            }
            match read_frame(&mut reader) {
                Ok(None) => break,
                Ok(Some(payload)) => match decode_v2_request_header(&payload) {
                    Ok((rid, gid, body)) => match Request::decode(body) {
                        Ok(Request::Shutdown) => {
                            // Stop reading first; the daemon-wide stop runs
                            // after the scope joins, so the tagged answer is
                            // written before the socket closes.
                            let _ = resp_tx.send(encode_v2_response(rid, &Response::ShuttingDown));
                            stop_after = true;
                            break;
                        }
                        Ok(req)
                            if matches!(req, Request::Hello { .. }) || gid as usize >= ntenants =>
                        {
                            // Re-Hellos and unknown-graph routes have no
                            // tenant executor; answer inline, no slot taken.
                            let resp = core.handle_on(gid, &req);
                            let _ = resp_tx.send(encode_v2_response(rid, &resp));
                        }
                        Ok(req) => {
                            acquire_slot(&slots, cap);
                            let _ = work_txs[gid as usize].send((rid, req));
                        }
                        Err(e) => {
                            core.note_protocol_error();
                            let _ = resp_tx.send(encode_v2_response(rid, &rejected(&e)));
                        }
                    },
                    Err(e) => {
                        // Frame shorter than the v2 header: framing is still
                        // in sync, answer with request id 0 and keep going.
                        core.note_protocol_error();
                        let _ = resp_tx.send(encode_v2_response(0, &rejected(&e)));
                    }
                },
                Err(WireError::Protocol(e)) => {
                    core.note_protocol_error();
                    let _ = resp_tx.send(encode_v2_response(0, &rejected(&e)));
                    break;
                }
                Err(WireError::Io(_)) => break,
            }
        }
        // Closing the work channels lets executors drain and exit; their
        // dropped response senders then close the queue and the writer
        // finishes. The scope joins everything.
        drop(work_txs);
        drop(resp_tx);
    });

    if stop_after {
        stop(running, addr, conns);
    }
}
