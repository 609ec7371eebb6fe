//! Byte-stream transport abstraction and the in-process loopback pipe.
//!
//! The hermetic build has no network, so the server is written against
//! [`Conn`] — the minimal surface the session loop needs (blocking
//! reads with an optional timeout, writes, and an explicit kill
//! switch) — and tested over [`loopback_pair`]: a full-duplex
//! in-process pipe built from two bounded byte queues with condvar
//! wakeups. A write or read moves as many bytes as fit under one lock
//! (a vectored write takes a whole frame, header and body, at once).
//! A reader that finds the pipe empty first yield-polls a lock-free
//! "readable" flag for a bounded window (`POLL_BUDGET`) and parks on
//! the condvar only if nothing arrived: a reply that comes back within
//! microseconds is picked up without a sleep and a wake-up. At most
//! `POLLERS_PER_CORE` readers per core poll at once, process-wide; a
//! reader that finds no free slot parks at once. The condvar is
//! notified only when a thread is parked on it, so a round trip whose
//! reply lands inside the window costs no wake-up at all, and one that
//! misses it costs one per frame. The pair reproduces the failure
//! modes the disconnect-safety machinery must survive:
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
use std::thread;
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

/// How long a reader that finds its pipe empty yield-polls before it
/// parks. A session's peer answers a frame in tens of microseconds; a
/// reader parked on a futex pays a syscall, and on a VM an idle-vCPU
/// wake, for every such reply. Past this window the reply is far
/// enough off that parking costs less than the yields (EXPERIMENTS
/// §XS.26 swept 10–200 µs).
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// Concurrent pollers allowed per core, process-wide. A yielding poller
/// hands its core to any runnable thread, so a few per core cost
/// nothing; hundreds (one per idle session) keep every run queue full
/// of yield loops and starve the threads doing the work (EXPERIMENTS
/// §XS.26 swept 1–8 per core).
const POLLERS_PER_CORE: usize = 4;

/// A bounded set of poll slots, shared by every pipe that points at it.
struct Pollers {
    /// Slots taken. A count that publishes no other data: `Relaxed`.
    active: AtomicUsize,
    cap: usize,
    budget: Duration,
}

/// The process-wide slots every [`loopback_pair`] polls under.
static POLLERS: LazyLock<Pollers> = LazyLock::new(|| Pollers {
    active: AtomicUsize::new(0),
    cap: POLLERS_PER_CORE * thread::available_parallelism().map_or(1, |n| n.get()),
    budget: POLL_BUDGET,
});

/// A held poll slot; dropping it gives the slot back, on every exit.
struct PollSlot<'a>(&'a AtomicUsize);

impl Drop for PollSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Pollers {
    /// Takes a slot, or `None` if `cap` readers are polling already.
    fn take(&self) -> Option<PollSlot<'_>> {
        self.active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .ok()
            .map(|_| PollSlot(&self.active))
    }
}

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
    /// `!buf.is_empty() || closed`, readable without the lock by a
    /// polling reader. Stored (`Release`) only under `state`'s mutex,
    /// after the change it reflects; the poller's `Acquire` load pairs
    /// with it, and the reader takes the mutex before it touches `buf`.
    readable: AtomicBool,
    pollers: &'static Pollers,
}

impl Pipe {
    fn new(pollers: &'static Pollers) -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState::default()),
            cv: Condvar::new(),
            readable: AtomicBool::new(false),
            pollers,
        })
    }

    /// Publishes `st`'s readability to pollers; called under the lock.
    fn publish(&self, st: &PipeState) {
        self.readable
            .store(!st.buf.is_empty() || st.closed, Ordering::Release);
    }

    /// Closes this direction; `discard` first drops what is buffered
    /// (an abrupt kill).
    fn close(&self, discard: bool) {
        let mut st = self.state.lock().unwrap();
        if discard {
            st.buf.clear();
        }
        st.closed = true;
        self.publish(&st);
        drop(st);
        self.cv.notify_all();
    }

    /// Wakes whoever is blocked on the pipe, if anyone is.
    fn wake(&self, st: &PipeState) {
        if st.waiting > 0 {
            self.cv.notify_all();
        }
    }

    /// Yields the core until the pipe turns readable, the poll budget
    /// runs out or `deadline` passes, whichever is first. Returns at
    /// once if no poll slot is free.
    fn poll(&self, deadline: Option<Instant>) {
        let Some(_slot) = self.pollers.take() else {
            return;
        };
        let mut end = Instant::now() + self.pollers.budget;
        if let Some(d) = deadline {
            end = end.min(d);
        }
        while !self.readable.load(Ordering::Acquire) && Instant::now() < end {
            thread::yield_now();
        }
    }

    fn read(&self, out: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut polled = false;
        let mut st = self.state.lock().unwrap();
        loop {
            if !st.buf.is_empty() {
                let n = st.buf.read(out)?;
                self.publish(&st);
                self.wake(&st);
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            if !polled {
                // Poll once, off the lock, before the first park.
                polled = true;
                drop(st);
                self.poll(deadline);
                st = self.state.lock().unwrap();
                continue;
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
                self.publish(&st);
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
        self.rx.close(false);
        self.tx.close(false);
    }

    /// Simulates an abrupt disconnect: discards anything buffered
    /// toward the peer, then closes both directions — the peer sees
    /// EOF possibly mid-frame, exactly like a killed TCP client.
    pub fn kill(&self) {
        self.tx.close(true);
        self.rx.close(false);
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
    pair_polling_under(&POLLERS)
}

/// [`loopback_pair`] whose readers take their poll slots from `pollers`.
fn pair_polling_under(pollers: &'static Pollers) -> (LoopbackConn, LoopbackConn) {
    let ab = Pipe::new(pollers);
    let ba = Pipe::new(pollers);
    (
        LoopbackConn {
            rx: Arc::clone(&ba),
            tx: Arc::clone(&ab),
            read_timeout: None,
        },
        LoopbackConn {
            rx: ab,
            tx: ba,
            read_timeout: None,
        },
    )
}

#[cfg(test)]
/// Runs `f` on its own thread and fails the test if it has not
/// finished within a minute: a lost wake-up leaves a thread blocked
/// for good, and must show as a failure, not as a hung test run (the
/// blocked thread is left behind; the test process ends it).
pub(crate) fn watchdog(f: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc::{channel, RecvTimeoutError};
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
        Err(RecvTimeoutError::Timeout) => {
            panic!("blocked for 60 s: a wake-up was lost or a reader never returned")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, Request};

    /// Polls `pipe` until `ready` holds of its state.
    fn await_state(pipe: &Pipe, ready: impl Fn(&PipeState) -> bool) {
        while !ready(&pipe.state.lock().unwrap()) {
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A private set of `cap` poll slots with its own `budget`, so a
    /// test can count its readers' pollers apart from every other
    /// test's.
    fn pollers(cap: usize, budget: Duration) -> &'static Pollers {
        Box::leak(Box::new(Pollers {
            active: AtomicUsize::new(0),
            cap,
            budget,
        }))
    }

    /// Readers polling under `pool` right now.
    fn polling(pool: &Pollers) -> usize {
        pool.active.load(Ordering::Relaxed)
    }

    /// Waits until exactly `n` readers poll under `pool`.
    fn await_polling(pool: &Pollers, n: usize) {
        while polling(pool) != n {
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A poll budget no test outlives: a reader polling under it
    /// leaves only when the pipe turns readable or its deadline
    /// passes, and a missed update shows as a watchdog failure.
    const FOREVER: Duration = Duration::from_secs(3600);

    /// Echoes frames on `n` pairs polling under `pool`, `frames` round
    /// trips each, no read timeout on either side.
    fn ping_pong(pool: &'static Pollers, n: usize, frames: u32) {
        let pairs: Vec<_> = (0..n)
            .map(|_| {
                thread::spawn(move || {
                    let (mut a, mut b) = pair_polling_under(pool);
                    let echo = thread::spawn(move || {
                        while let Some(body) = read_frame(&mut b).unwrap() {
                            write_frame(&mut b, &body).unwrap();
                        }
                    });
                    for i in 0..frames {
                        let body = i.to_le_bytes();
                        write_frame(&mut a, &body).unwrap();
                        assert_eq!(read_frame(&mut a).unwrap().unwrap(), body);
                    }
                    drop(a);
                    echo.join().unwrap();
                })
            })
            .collect();
        for p in pairs {
            p.join().unwrap();
        }
        assert_eq!(polling(pool), 0);
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        // A slot for both readers: every empty read polls first, and
        // parks when the reply takes longer than the budget.
        watchdog(|| ping_pong(pollers(2, POLL_BUDGET), 1, 100_000));
    }

    #[test]
    fn more_ping_pong_pairs_than_poll_slots_lose_no_wakeup() {
        // 32 readers over 4 slots: most reads find none free and park
        // at once, beside readers that poll.
        watchdog(|| ping_pong(pollers(4, POLL_BUDGET), 16, 20_000));
    }

    #[test]
    fn a_poll_gives_its_slot_back_on_data_deadline_and_budget() {
        watchdog(|| {
            // Data: bytes written while the reader polls end its poll.
            let pool = pollers(1, FOREVER);
            let (mut a, mut b) = pair_polling_under(pool);
            let reader = thread::spawn(move || {
                let mut buf = [0u8; 4];
                (b.read(&mut buf).unwrap(), b)
            });
            await_polling(pool, 1);
            a.write_all(b"ping").unwrap();
            let (n, mut b) = reader.join().unwrap();
            assert_eq!((n, polling(pool)), (4, 0));

            // Deadline: a read timeout shorter than the budget ends the
            // poll with `TimedOut`.
            b.set_read_timeout(Some(Duration::from_millis(20)));
            let err = b.read(&mut [0u8; 1]).unwrap_err();
            assert_eq!((err.kind(), polling(pool)), (io::ErrorKind::TimedOut, 0));

            // Budget: a reader whose budget ran out parks without its
            // slot and still gets the bytes written afterwards.
            let pool = pollers(1, Duration::from_millis(1));
            let (mut a, mut b) = pair_polling_under(pool);
            let reader = thread::spawn(move || b.read(&mut [0u8; 4]).unwrap());
            await_state(&a.tx, |st| st.waiting == 1);
            assert_eq!(polling(pool), 0, "a parked reader holds no slot");
            a.write_all(b"pong").unwrap();
            assert_eq!(reader.join().unwrap(), 4);
        });
    }

    #[test]
    fn close_or_kill_while_polling_is_eof_and_frees_the_slot() {
        watchdog(|| {
            for kill in [false, true] {
                let pool = pollers(1, FOREVER);
                let (a, mut b) = pair_polling_under(pool);
                let reader = thread::spawn(move || b.read(&mut [0u8; 1]).unwrap());
                await_polling(pool, 1);
                if kill {
                    a.kill();
                } else {
                    a.close();
                }
                assert_eq!(reader.join().unwrap(), 0, "EOF (kill: {kill})");
                assert_eq!(polling(pool), 0, "kill: {kill}");
            }
        });
    }

    #[test]
    fn a_reader_without_a_free_slot_parks_at_once() {
        watchdog(|| {
            let pool = pollers(1, FOREVER);
            let (mut a1, mut b1) = pair_polling_under(pool);
            let (mut a2, mut b2) = pair_polling_under(pool);
            let first = thread::spawn(move || b1.read(&mut [0u8; 1]).unwrap());
            await_polling(pool, 1);
            let second = thread::spawn(move || b2.read(&mut [0u8; 1]).unwrap());
            // The second reader parks while the first still polls.
            await_state(&a2.tx, |st| st.waiting == 1);
            assert_eq!(polling(pool), 1);
            a2.write_all(b"y").unwrap();
            assert_eq!(second.join().unwrap(), 1);
            a1.write_all(b"x").unwrap();
            assert_eq!(first.join().unwrap(), 1);
            assert_eq!(polling(pool), 0);
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
            assert!(
                !writer.is_finished(),
                "the writer is blocked on the full pipe"
            );
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
            let body = Request::Query {
                class: "acc".into(),
            }
            .encode();
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
        let req = Request::Query {
            class: "acc".into(),
        };
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
