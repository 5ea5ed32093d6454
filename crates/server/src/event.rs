//! Readiness multiplexing for the event-driven serve loops.
//!
//! Each loop shard multiplexes its connections (plus a wake-up channel)
//! on one thread, so ten thousand mostly idle device streams cost ten
//! thousand poll-set entries — not ten thousand parked threads with
//! 8 MiB stacks. The workspace builds offline without the `libc` crate, so the
//! one syscall, `poll(2)`, is declared directly; the constants are the
//! values shared by Linux and the BSDs.
//!
//! The poll set is the loop shard's only readiness state: each lap it is
//! built afresh from the connection table (see `LoopShard::run`), handed
//! to [`poll_fds`], and its `revents` decide which connections the lap
//! services. [`poll_fds`] runs anywhere with `poll.h` semantics; on
//! non-unix targets it degrades to a bounded sleep that reports every
//! fd ready at its interest bits.
//!
//! The [`Waker`] is a loopback UDP socket pair (no `pipe(2)` FFI needed,
//! sends never block), each side connected to the other so the kernel
//! drops datagrams from any other sender.

use std::io;
use std::net::UdpSocket;

/// Interest/readiness bits (POSIX `poll.h` values).
pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;
pub const POLLERR: i16 = 0x8;
pub const POLLHUP: i16 = 0x10;

/// One poll-set entry: `fd` + interest `events` in, readiness `revents` out.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any readiness (or error/hangup — both mean "go look at the
    /// socket") was reported.
    pub fn is_ready(&self) -> bool {
        self.revents & (POLLIN | POLLOUT | POLLERR | POLLHUP) != 0
    }
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use super::PollFd;
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks until at least one fd is ready, the timeout elapses, or a
    /// signal interrupts (retried). Returns the number of ready fds.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            for fd in fds.iter_mut() {
                fd.revents = 0;
            }
            // Safety: `fds` is a valid, exclusively-borrowed slice of
            // `#[repr(C)]` pollfd-layout structs for the duration of the
            // call; the kernel writes only `revents`.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use super::{PollFd, POLLIN, POLLOUT};
    use std::io;

    /// Degraded fallback without `poll(2)`: sleep briefly, then report
    /// every fd ready at its interest bits. All sockets are nonblocking,
    /// so spurious readiness costs one `WouldBlock` syscall each — a busy
    /// loop bounded by the sleep, trading efficiency for portability.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let ms = if timeout_ms < 0 { 5 } else { timeout_ms.min(5) };
        std::thread::sleep(std::time::Duration::from_millis(ms as u64));
        for fd in fds.iter_mut() {
            fd.revents = fd.events & (POLLIN | POLLOUT);
        }
        Ok(fds.len())
    }
}

pub use sys::poll_fds;

/// Raw fd accessor, unix only (the poll set is built from these).
#[cfg(unix)]
pub fn fd_of<T: std::os::fd::AsRawFd>(sock: &T) -> i32 {
    sock.as_raw_fd()
}

/// On non-unix targets the fallback `poll_fds` ignores fds entirely.
#[cfg(not(unix))]
pub fn fd_of<T>(_sock: &T) -> i32 {
    -1
}

/// Wakes a loop shard sleeping in [`poll_fds`] from another thread.
///
/// A loopback UDP socket pair: portable, sends never block, and a receive
/// buffer's worth of wakes coalesce. `rx` is connected to `tx`, so the
/// kernel drops datagrams from every other local sender instead of
/// letting them wake the loop. Poll [`Waker::fd`] for `POLLIN`;
/// [`Waker::wake`] fires it; [`Waker::drain`] clears every pending wake.
pub struct Waker {
    rx: UdpSocket,
    tx: UdpSocket,
}

impl Waker {
    pub fn new() -> io::Result<Self> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        rx.connect(tx.local_addr()?)?;
        tx.connect(rx.local_addr()?)?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The fd to poll for `POLLIN`.
    pub fn fd(&self) -> i32 {
        fd_of(&self.rx)
    }

    /// Signals the event loop. Never blocks; a full receive buffer means
    /// enough wakes are already pending and the signal is dropped.
    pub fn wake(&self) {
        let _ = self.tx.send(&[1]);
    }

    /// Swallows every pending wake.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while self.rx.recv(&mut buf).is_ok() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn waker_makes_poll_ready_and_drain_resets() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];

        // Nothing pending: poll times out quickly.
        let start = Instant::now();
        poll_fds(&mut fds, 30).unwrap();
        if cfg!(unix) {
            assert!(!fds[0].is_ready() || start.elapsed() < Duration::from_millis(30));
        }

        waker.wake();
        waker.wake(); // coalesces
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert!(n >= 1);
        assert!(fds[0].is_ready());

        waker.drain();
        // Drained: a fresh poll with a short timeout reports nothing (on
        // unix; the portable fallback always reports ready).
        #[cfg(unix)]
        {
            poll_fds(&mut fds, 10).unwrap();
            assert!(!fds[0].is_ready(), "drain cleared all pending wakes");
        }
    }

    #[test]
    fn wake_from_another_thread_interrupts_a_sleeping_poll() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                waker.wake();
            });
            let start = Instant::now();
            poll_fds(&mut fds, 5_000).unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(4),
                "poll returned well before its timeout"
            );
        });
    }

    /// A datagram from any socket but the waker's own sender is dropped by
    /// the kernel: it neither makes the waker ready nor masks a real wake.
    #[test]
    #[cfg(unix)]
    fn waker_ignores_datagrams_from_other_senders() {
        let waker = Waker::new().unwrap();
        let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
        stranger
            .send_to(b"spurious", waker.rx.local_addr().unwrap())
            .unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        poll_fds(&mut fds, 50).unwrap();
        assert!(!fds[0].is_ready(), "a foreign datagram woke the loop");

        waker.wake();
        poll_fds(&mut fds, 1000).unwrap();
        assert!(fds[0].is_ready(), "the waker's own wake still lands");
    }
}
