//! Byte-stream transport abstraction and the in-process loopback pipe.
//!
//! The hermetic build has no network, so the server is written against
//! [`Conn`] — the minimal surface the session loop needs (blocking
//! reads with an optional timeout, writes, and an explicit kill
//! switch) — and tested over [`loopback_pair`]: a full-duplex
//! in-process pipe built from two bounded byte queues with condvar
//! wakeups. A write or read moves as many bytes as fit under one lock
//! (a vectored write takes a whole frame, header and body, at once),
//! and the condvar is notified only when a thread is blocked on it, so
//! a request/response round trip costs one wake-up per frame. The pair
//! reproduces the failure modes the disconnect-safety machinery must
//! survive:
//!
//! * **clean close** — [`LoopbackConn::close`] (or drop) marks both
//!   directions closed; the peer's next read returns EOF at a frame
//!   boundary.
//! * **abrupt kill** — [`LoopbackConn::kill`] simulates a client dying
//!   mid-transaction: same EOF, but the test harness flips it at a
//!   chosen protocol step.
//! * **slow peer** — the write side blocks when the peer stops
//!   draining (bounded queue), and reads honour
//!   [`Conn::set_read_timeout`], surfacing
//!   [`std::io::ErrorKind::TimedOut`] so the per-session timeout can
//!   fire (the slowloris defence).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A connection the server can serve: blocking reads/writes plus a
/// read timeout. Implemented by [`LoopbackConn`]; a TCP stream would
/// satisfy the same contract.
pub trait Conn: Read + Write + Send {
    /// Sets the read timeout. `None` blocks indefinitely. Timed-out
    /// reads fail with [`io::ErrorKind::TimedOut`].
    fn set_read_timeout(&mut self, timeout: Option<Duration>);
}

/// Per-direction capacity of the loopback pipe. Small enough that a
/// peer which stops reading exerts real backpressure on the writer.
const PIPE_CAP: usize = 256 * 1024;

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
    /// Threads blocked on the pipe's condvar (a reader waiting for
    /// bytes or a writer waiting for room). A change that one of them
    /// could be waiting for notifies only while this is non-zero.
    waiting: usize,
}

struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe { state: Mutex::new(PipeState::default()), cv: Condvar::new() })
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Wakes whoever is blocked on the pipe, if anyone is.
    fn wake(&self, st: &PipeState) {
        if st.waiting > 0 {
            self.cv.notify_all();
        }
    }

    fn read(&self, out: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.state.lock().unwrap();
        loop {
            if !st.buf.is_empty() {
                let n = st.buf.read(out)?;
                self.wake(&st);
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            st.waiting += 1;
            st = match deadline {
                None => self.cv.wait(st).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        st.waiting -= 1;
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "read timeout"));
                    }
                    self.cv.wait_timeout(st, d - now).unwrap().0
                }
            };
            st.waiting -= 1;
        }
    }

    /// Appends as much of `data`, in order, as fits; blocks while the
    /// pipe is full.
    fn write(&self, data: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
            }
            if st.buf.len() < PIPE_CAP {
                let mut n = 0;
                for part in data {
                    let k = part.len().min(PIPE_CAP - st.buf.len());
                    st.buf.extend(&part[..k]);
                    n += k;
                }
                self.wake(&st);
                return Ok(n);
            }
            st.waiting += 1;
            st = self.cv.wait(st).unwrap();
            st.waiting -= 1;
        }
    }
}

/// One endpoint of an in-process full-duplex byte pipe (see module
/// docs). Dropping an endpoint closes both directions.
pub struct LoopbackConn {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    read_timeout: Option<Duration>,
}

impl LoopbackConn {
    /// Closes both directions cleanly. The peer's pending and future
    /// reads drain buffered bytes, then see EOF.
    pub fn close(&self) {
        self.rx.close();
        self.tx.close();
    }

    /// Simulates an abrupt disconnect: discards anything buffered
    /// toward the peer, then closes both directions — the peer sees
    /// EOF possibly mid-frame, exactly like a killed TCP client.
    pub fn kill(&self) {
        self.tx.state.lock().unwrap().buf.clear();
        self.close();
    }
}

impl Read for LoopbackConn {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        self.rx.read(out, self.read_timeout)
    }
}

impl Write for LoopbackConn {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.tx.write(&[IoSlice::new(data)])
    }

    fn write_vectored(&mut self, data: &[IoSlice<'_>]) -> io::Result<usize> {
        self.tx.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for LoopbackConn {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }
}

impl Drop for LoopbackConn {
    fn drop(&mut self) {
        self.close();
    }
}

/// Creates a connected full-duplex pair: bytes written to one endpoint
/// are read from the other.
pub fn loopback_pair() -> (LoopbackConn, LoopbackConn) {
    let ab = Pipe::new();
    let ba = Pipe::new();
    (
        LoopbackConn { rx: Arc::clone(&ba), tx: Arc::clone(&ab), read_timeout: None },
        LoopbackConn { rx: ab, tx: ba, read_timeout: None },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, Request};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::thread;

    /// Runs `f` on its own thread and fails the test if it has not
    /// finished within a minute: a lost wake-up leaves a thread blocked
    /// for good, and must show as a failure, not as a hung test run (the
    /// blocked thread is left behind; the test process ends it).
    fn watchdog(f: impl FnOnce() + Send + 'static) {
        let (done, finished) = channel();
        let worker = thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("finished without reporting"),
            },
            Err(RecvTimeoutError::Timeout) => panic!("blocked for 60 s: a wake-up was lost"),
        }
    }

    /// Polls `pipe` until `ready` holds of its state.
    fn await_state(pipe: &Pipe, ready: impl Fn(&PipeState) -> bool) {
        while !ready(&pipe.state.lock().unwrap()) {
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        watchdog(|| {
            let (mut a, mut b) = loopback_pair();
            let echo = thread::spawn(move || {
                while let Some(body) = read_frame(&mut b).unwrap() {
                    write_frame(&mut b, &body).unwrap();
                }
            });
            // 100 000 frames each way, no read timeout on either side.
            for i in 0..100_000u32 {
                let body = i.to_le_bytes();
                write_frame(&mut a, &body).unwrap();
                assert_eq!(read_frame(&mut a).unwrap().unwrap(), body);
            }
            drop(a);
            echo.join().unwrap();
        });
    }

    #[test]
    fn writer_blocked_on_a_full_pipe_wakes_when_the_reader_drains() {
        watchdog(|| {
            let (mut a, mut b) = loopback_pair();
            let body = vec![7u8; PIPE_CAP + PIPE_CAP / 2];
            let len = body.len();
            let writer = thread::spawn(move || {
                write_frame(&mut a, &body).unwrap();
                a
            });
            await_state(&b.rx, |st| st.buf.len() == PIPE_CAP && st.waiting == 1);
            assert!(!writer.is_finished(), "the writer is blocked on the full pipe");
            let got = read_frame(&mut b).unwrap().expect("frame");
            assert!(got.len() == len && got.iter().all(|&x| x == 7));
            drop(writer.join().unwrap());
        });
    }

    #[test]
    fn reader_blocked_mid_header_gets_the_whole_frame() {
        watchdog(|| {
            let (mut a, mut b) = loopback_pair();
            let reader = thread::spawn(move || read_frame(&mut b).unwrap());
            let body = Request::Query { class: "acc".into() }.encode();
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            a.write_all(&frame[..2]).unwrap();
            // The reader took the two bytes and blocks for the rest.
            await_state(&a.tx, |st| st.buf.is_empty() && st.waiting == 1);
            a.write_all(&frame[2..]).unwrap();
            assert_eq!(reader.join().unwrap(), Some(body));
        });
    }

    #[test]
    fn bytes_flow_both_ways() {
        let (mut a, mut b) = loopback_pair();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn frames_cross_the_pipe() {
        let (mut a, mut b) = loopback_pair();
        let req = Request::Query { class: "acc".into() };
        write_frame(&mut a, &req.encode()).unwrap();
        let body = read_frame(&mut b).unwrap().expect("frame");
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn close_is_eof_kill_discards() {
        let (mut a, mut b) = loopback_pair();
        a.write_all(b"tail").unwrap();
        a.close();
        let mut buf = [0u8; 8];
        // Clean close: buffered bytes drain first, then EOF.
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(b.read(&mut buf).unwrap(), 0);

        let (mut a, mut b) = loopback_pair();
        a.write_all(b"lost").unwrap();
        a.kill();
        // Abrupt kill: buffered bytes are gone, immediate EOF.
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert!(a.write_all(b"x").is_err(), "write after kill fails");
    }

    #[test]
    fn read_timeout_fires() {
        let (_a, mut b) = loopback_pair();
        b.set_read_timeout(Some(Duration::from_millis(20)));
        let mut buf = [0u8; 1];
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn drop_closes_the_peer() {
        let (a, mut b) = loopback_pair();
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after peer drop");
    }
}
