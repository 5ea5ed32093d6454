//! Readiness backends for the event-driven serve loops.
//!
//! Each loop shard multiplexes its connections (plus a wake-up channel)
//! on one thread, so ten thousand mostly idle device streams cost ten
//! thousand registered fds — not ten thousand parked threads with 8 MiB
//! stacks. The container toolchain has no `libc` crate (same situation
//! as `trips-wal`'s mmap path), so every syscall wrapper is declared
//! directly; the constants are the values shared by Linux and the BSDs
//! (epoll is Linux-only and gated as such).
//!
//! Two backends behind one [`Poller`] enum so `server.rs` stays
//! backend-agnostic:
//!
//! * **epoll** (Linux, the default): edge-triggered. Every fd is
//!   registered once with `EPOLLIN | EPOLLOUT | EPOLLET`; readiness
//!   edges are cached by the caller (`can_read`/`can_write` on each
//!   connection) and re-armed by the kernel only on state transitions,
//!   so a wakeup costs O(ready fds), not O(registered fds).
//! * **poll(2)** (portable fallback): level-triggered, the poll set is
//!   rebuilt from the registry on every wait. O(fds) per wakeup but
//!   runs anywhere with `poll.h` semantics; on non-unix targets it
//!   degrades further to a bounded sleep that reports everything ready.
//!
//! The [`Waker`] pairs with the backend: an `eventfd(2)` under epoll
//! (one fd, a u64 counter, edge-friendly), a loopback UDP socket pair
//! under poll (no `pipe(2)` FFI needed, sends never block).

use std::io;
use std::net::UdpSocket;

/// Interest/readiness bits (POSIX `poll.h` values).
pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;
pub const POLLERR: i16 = 0x8;
pub const POLLHUP: i16 = 0x10;

/// One registered fd: `fd` + interest `events` in, readiness `revents` out.
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

#[cfg(target_os = "linux")]
mod epoll_sys {
    use std::io;
    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;
    const TFD_CLOEXEC: c_int = 0o2000000;
    const TFD_NONBLOCK: c_int = 0o4000;
    const CLOCK_MONOTONIC: c_int = 1;

    /// Kernel `struct epoll_event`. Packed on x86-64 (the kernel ABI there
    /// has no padding between `events` and `data`); natural layout on
    /// other architectures.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
        fn timerfd_settime(
            fd: c_int,
            flags: c_int,
            new_value: *const Itimerspec,
            old_value: *mut Itimerspec,
        ) -> c_int;
    }

    /// Kernel `struct timespec` (64-bit time_t targets).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }

    /// Kernel `struct itimerspec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Itimerspec {
        it_interval: Timespec,
        it_value: Timespec,
    }

    /// An owned epoll instance.
    #[derive(Debug)]
    pub struct EpollFd(c_int);

    impl EpollFd {
        pub fn new() -> io::Result<Self> {
            // Safety: plain syscall, no pointers.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollFd(fd))
        }

        pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // Safety: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.0, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn del(&self, fd: i32) -> io::Result<()> {
            // Pre-2.6.9 kernels required a non-null event even for DEL;
            // passing one is harmless everywhere.
            let mut ev = EpollEvent { events: 0, data: 0 };
            // Safety: as in `add`.
            let rc = unsafe { epoll_ctl(self.0, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Waits for readiness edges, with EINTR retry. Returns how many
        /// entries of `out` were filled.
        pub fn wait(&self, out: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // Safety: `out` is a valid exclusively-borrowed buffer of
                // kernel-layout events for the duration of the call.
                let rc =
                    unsafe { epoll_wait(self.0, out.as_mut_ptr(), out.len() as c_int, timeout_ms) };
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

    impl Drop for EpollFd {
        fn drop(&mut self) {
            // Safety: fd is owned and closed exactly once.
            unsafe { close(self.0) };
        }
    }

    /// An owned nonblocking `eventfd(2)` — the wake-up channel under epoll.
    /// Writes add to a kernel u64 counter (an edge for EPOLLET); one read
    /// returns and clears it, so any number of wakes coalesce.
    #[derive(Debug)]
    pub struct EventFd(c_int);

    impl EventFd {
        pub fn new() -> io::Result<Self> {
            // Safety: plain syscall, no pointers.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd(fd))
        }

        pub fn fd(&self) -> i32 {
            self.0
        }

        /// Adds 1 to the counter. Never blocks: EAGAIN means the counter
        /// is saturated, i.e. more than enough wakes are already pending.
        pub fn signal(&self) {
            let one: u64 = 1;
            // Safety: 8 valid bytes at a valid pointer.
            unsafe { write(self.0, (&one as *const u64).cast(), 8) };
        }

        /// Reads and clears the counter (EAGAIN when already clear).
        pub fn clear(&self) {
            let mut buf: u64 = 0;
            // Safety: 8 writable bytes at a valid pointer.
            unsafe { read(self.0, (&mut buf as *mut u64).cast(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // Safety: fd is owned and closed exactly once.
            unsafe { close(self.0) };
        }
    }

    /// An owned nonblocking `timerfd(2)` armed with a repeating interval —
    /// the idle-reap tick under epoll. Expirations accumulate in a kernel
    /// u64 counter (an edge for EPOLLET); one [`TimerFd::drain`] clears
    /// however many fired.
    #[derive(Debug)]
    pub struct TimerFd(c_int);

    impl TimerFd {
        /// Creates a monotonic timer firing every `period` (floored to
        /// 1 ms — a zero `it_value` would disarm it entirely).
        pub fn new_interval(period: std::time::Duration) -> io::Result<Self> {
            // Safety: plain syscall, no pointers.
            let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let timer = TimerFd(fd);
            let period = period.max(std::time::Duration::from_millis(1));
            let spec = Timespec {
                tv_sec: period.as_secs() as std::os::raw::c_long,
                tv_nsec: period.subsec_nanos() as std::os::raw::c_long,
            };
            let its = Itimerspec {
                it_interval: spec,
                it_value: spec,
            };
            // Safety: `its` outlives the call; the kernel copies it.
            let rc = unsafe { timerfd_settime(timer.0, 0, &its, std::ptr::null_mut()) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(timer)
        }

        pub fn fd(&self) -> i32 {
            self.0
        }

        /// Reads and clears the expiration counter (EAGAIN when clear).
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            // Safety: 8 writable bytes at a valid pointer.
            unsafe { read(self.0, (&mut buf as *mut u64).cast(), 8) };
        }
    }

    impl Drop for TimerFd {
        fn drop(&mut self) {
            // Safety: fd is owned and closed exactly once.
            unsafe { close(self.0) };
        }
    }
}

/// Re-export for the serve loop's timerfd-driven idle reaping (linux only;
/// the poll backend reaps on its bounded wait laps instead).
#[cfg(target_os = "linux")]
pub use epoll_sys::TimerFd;

/// Which readiness backend to run. `Auto` resolves to epoll on Linux and
/// poll(2) everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    #[default]
    Auto,
    Epoll,
    Poll,
}

impl BackendChoice {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(BackendChoice::Auto),
            "epoll" => Some(BackendChoice::Epoll),
            "poll" => Some(BackendChoice::Poll),
            _ => None,
        }
    }

    /// The concrete backend this choice resolves to on the current target.
    pub fn resolved(self) -> BackendChoice {
        match self {
            BackendChoice::Auto => {
                if cfg!(target_os = "linux") {
                    BackendChoice::Epoll
                } else {
                    BackendChoice::Poll
                }
            }
            other => other,
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Epoll => "epoll",
            BackendChoice::Poll => "poll",
        })
    }
}

/// One readiness edge reported by [`Poller::wait`]. `token` is whatever
/// the caller registered the fd under. Error/hangup conditions are folded
/// into both directions — "go do I/O and discover the truth".
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

/// Registry for the poll(2) backend: token → (fd, interest). The poll set
/// is rebuilt from this on every [`Poller::wait`].
#[derive(Debug, Default)]
pub struct PollRegistry {
    slots: std::collections::BTreeMap<u64, (i32, i16)>,
}

/// A readiness backend instance owned by one loop shard.
#[derive(Debug)]
pub enum Poller {
    Poll(PollRegistry),
    #[cfg(target_os = "linux")]
    Epoll(epoll_sys::EpollFd),
}

impl Poller {
    /// Opens a backend. `Epoll` on a non-Linux target is `Unsupported`.
    pub fn new(choice: BackendChoice) -> io::Result<Poller> {
        match choice.resolved() {
            BackendChoice::Poll => Ok(Poller::Poll(PollRegistry::default())),
            #[cfg(target_os = "linux")]
            BackendChoice::Epoll => Ok(Poller::Epoll(epoll_sys::EpollFd::new()?)),
            #[cfg(not(target_os = "linux"))]
            BackendChoice::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll backend requires linux",
            )),
            BackendChoice::Auto => unreachable!("resolved() never returns Auto"),
        }
    }

    pub fn backend_name(&self) -> &'static str {
        match self {
            Poller::Poll(_) => "poll",
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
        }
    }

    /// Whether readiness is edge-triggered (readiness must be cached by
    /// the caller and cleared only on `WouldBlock`).
    pub fn edge_triggered(&self) -> bool {
        match self {
            Poller::Poll(_) => false,
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => true,
        }
    }

    /// Registers an fd under `token`. Under epoll the requested directions
    /// are armed once, edge-triggered, and never change (a waker arms
    /// read-only — re-arming its write side on every drain would wake the
    /// loop forever); under poll `readable`/`writable` seed the
    /// level-triggered interest, updated later via [`Poller::set_interest`].
    pub fn register(
        &mut self,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match self {
            Poller::Poll(reg) => {
                let mut events = 0i16;
                if readable {
                    events |= POLLIN;
                }
                if writable {
                    events |= POLLOUT;
                }
                reg.slots.insert(token, (fd, events));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                use epoll_sys::*;
                let mut bits = EPOLLRDHUP | EPOLLET;
                if readable {
                    bits |= EPOLLIN;
                }
                if writable {
                    bits |= EPOLLOUT;
                }
                ep.add(fd, bits, token)
            }
        }
    }

    /// Updates level-triggered interest (poll backend only; a no-op under
    /// edge-triggered epoll, where interest never changes after `register`).
    pub fn set_interest(&mut self, token: u64, readable: bool, writable: bool) {
        if let Poller::Poll(reg) = self {
            if let Some((_, events)) = reg.slots.get_mut(&token) {
                let mut e = 0i16;
                if readable {
                    e |= POLLIN;
                }
                if writable {
                    e |= POLLOUT;
                }
                *events = e;
            }
        }
    }

    /// Removes an fd from the backend. Must be called before the fd is
    /// closed (epoll auto-deregisters on close, poll would error on a
    /// stale fd — doing it explicitly keeps both paths identical).
    pub fn deregister(&mut self, fd: i32, token: u64) {
        match self {
            Poller::Poll(reg) => {
                reg.slots.remove(&token);
            }
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                let _ = ep.del(fd);
                let _ = token;
            }
        }
    }

    /// Waits up to `timeout_ms` (0 = just poll, negative = forever) and
    /// appends readiness events to `out` (cleared first).
    pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        match self {
            Poller::Poll(reg) => {
                let mut fds = Vec::with_capacity(reg.slots.len());
                let mut tokens = Vec::with_capacity(reg.slots.len());
                for (&token, &(fd, events)) in &reg.slots {
                    if events != 0 {
                        fds.push(PollFd::new(fd, events));
                        tokens.push(token);
                    }
                }
                if fds.is_empty() {
                    // Nothing armed: still honor the timeout so the loop
                    // can't spin.
                    if timeout_ms != 0 {
                        let ms = if timeout_ms < 0 { 10 } else { timeout_ms };
                        std::thread::sleep(std::time::Duration::from_millis(ms as u64));
                    }
                    return Ok(());
                }
                poll_fds(&mut fds, timeout_ms)?;
                for (fd, token) in fds.iter().zip(tokens) {
                    let err = fd.revents & (POLLERR | POLLHUP) != 0;
                    let readable = fd.revents & POLLIN != 0 || err;
                    let writable = fd.revents & POLLOUT != 0 || err;
                    if readable || writable {
                        out.push(Event {
                            token,
                            readable,
                            writable,
                        });
                    }
                }
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                use epoll_sys::*;
                let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
                let n = ep.wait(&mut buf, timeout_ms)?;
                for ev in buf.iter().take(n) {
                    // Copy out of the (possibly packed) struct before use.
                    let bits = ev.events;
                    let token = ev.data;
                    let err = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                    out.push(Event {
                        token,
                        readable: bits & EPOLLIN != 0 || err,
                        writable: bits & EPOLLOUT != 0 || err,
                    });
                }
                Ok(())
            }
        }
    }
}

/// Wakes a sleeping [`Poller::wait`] from another thread.
///
/// The backend decides the mechanism: an `eventfd(2)` under epoll (one
/// fd, kernel-counter coalescing, a clean edge source for EPOLLET), a
/// loopback UDP socket pair under poll(2) (portable, sends never block,
/// a receive buffer's worth of wakes coalesce). Register [`Waker::fd`]
/// for read interest; [`Waker::wake`] fires it; [`Waker::drain`] clears
/// every pending wake.
pub enum Waker {
    Udp {
        rx: UdpSocket,
        tx: UdpSocket,
    },
    #[cfg(target_os = "linux")]
    EventFd(epoll_sys::EventFd),
}

impl Waker {
    /// The portable UDP-loopback waker.
    pub fn new() -> io::Result<Self> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        rx.set_nonblocking(true)?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        tx.connect(rx.local_addr()?)?;
        tx.set_nonblocking(true)?;
        Ok(Waker::Udp { rx, tx })
    }

    /// A waker matched to `poller`'s backend: eventfd under epoll, UDP
    /// loopback under poll.
    pub fn for_poller(poller: &Poller) -> io::Result<Self> {
        match poller {
            Poller::Poll(_) => Waker::new(),
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => Ok(Waker::EventFd(epoll_sys::EventFd::new()?)),
        }
    }

    /// The fd to register for read interest in the poll/epoll set.
    pub fn fd(&self) -> i32 {
        match self {
            Waker::Udp { rx, .. } => fd_of(rx),
            #[cfg(target_os = "linux")]
            Waker::EventFd(efd) => efd.fd(),
        }
    }

    /// The receive side of the UDP waker, for direct `PollFd` registration
    /// (legacy path; eventfd wakers expose only [`Waker::fd`]).
    pub fn receiver(&self) -> Option<&UdpSocket> {
        match self {
            Waker::Udp { rx, .. } => Some(rx),
            #[cfg(target_os = "linux")]
            Waker::EventFd(_) => None,
        }
    }

    /// Signals the event loop. Never blocks; saturation means enough
    /// wakes are already pending and the signal is dropped.
    pub fn wake(&self) {
        match self {
            Waker::Udp { tx, .. } => {
                let _ = tx.send(&[1]);
            }
            #[cfg(target_os = "linux")]
            Waker::EventFd(efd) => efd.signal(),
        }
    }

    /// Swallows every pending wake.
    pub fn drain(&self) {
        match self {
            Waker::Udp { rx, .. } => {
                let mut buf = [0u8; 64];
                while rx.recv(&mut buf).is_ok() {}
            }
            #[cfg(target_os = "linux")]
            Waker::EventFd(efd) => efd.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn udp_receiver(waker: &Waker) -> &UdpSocket {
        waker.receiver().expect("Waker::new() is the UDP variant")
    }

    #[test]
    fn waker_makes_poll_ready_and_drain_resets() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(fd_of(udp_receiver(&waker)), POLLIN)];

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
        let mut fds = [PollFd::new(fd_of(udp_receiver(&waker)), POLLIN)];
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

    #[test]
    fn backend_choice_parses_and_resolves() {
        assert_eq!(BackendChoice::parse("auto"), Some(BackendChoice::Auto));
        assert_eq!(BackendChoice::parse("epoll"), Some(BackendChoice::Epoll));
        assert_eq!(BackendChoice::parse("poll"), Some(BackendChoice::Poll));
        assert_eq!(BackendChoice::parse("kqueue"), None);
        let resolved = BackendChoice::Auto.resolved();
        assert_ne!(resolved, BackendChoice::Auto);
        if cfg!(target_os = "linux") {
            assert_eq!(resolved, BackendChoice::Epoll);
        } else {
            assert_eq!(resolved, BackendChoice::Poll);
        }
        assert_eq!(BackendChoice::Poll.to_string(), "poll");
    }

    /// One test body exercised against both backends: the waker's fd is
    /// registered under a token, wake → wait reports that token readable,
    /// drain → a zero-timeout wait reports nothing.
    fn waker_roundtrip(mut poller: Poller) {
        let waker = Waker::for_poller(&poller).unwrap();
        const TOKEN: u64 = 7;
        poller.register(waker.fd(), TOKEN, true, false).unwrap();

        let mut events = Vec::new();
        waker.wake();
        waker.wake(); // coalesces
        poller.wait(1000, &mut events).unwrap();
        assert!(
            events.iter().any(|e| e.token == TOKEN && e.readable),
            "{}: wake surfaced as a readable event",
            poller.backend_name()
        );

        waker.drain();
        #[cfg(unix)]
        {
            poller.wait(0, &mut events).unwrap();
            assert!(
                events.iter().all(|e| e.token != TOKEN),
                "{}: drain cleared pending wakes",
                poller.backend_name()
            );
        }

        poller.deregister(waker.fd(), TOKEN);
        poller.wait(0, &mut events).unwrap();
        waker.wake();
        poller.wait(0, &mut events).unwrap();
        assert!(
            events.is_empty(),
            "{}: deregistered fd reports nothing",
            poller.backend_name()
        );
    }

    #[test]
    fn poll_backend_waker_roundtrip() {
        let poller = Poller::new(BackendChoice::Poll).unwrap();
        assert_eq!(poller.backend_name(), "poll");
        assert!(!poller.edge_triggered());
        waker_roundtrip(poller);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn epoll_backend_waker_roundtrip() {
        let poller = Poller::new(BackendChoice::Epoll).unwrap();
        assert_eq!(poller.backend_name(), "epoll");
        assert!(poller.edge_triggered());
        waker_roundtrip(poller);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn timerfd_fires_repeatedly_and_drains() {
        let timer = TimerFd::new_interval(Duration::from_millis(5)).unwrap();
        let mut poller = Poller::new(BackendChoice::Epoll).unwrap();
        poller.register(timer.fd(), 3, true, false).unwrap();
        let mut events = Vec::new();
        poller.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        timer.drain();
        // A fresh interval elapses: the drained timer fires again.
        poller.wait(1000, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn eventfd_counts_edges_once_per_clear() {
        let waker = Waker::for_poller(&Poller::new(BackendChoice::Epoll).unwrap()).unwrap();
        assert!(waker.receiver().is_none(), "eventfd waker has no UDP side");
        let mut poller = Poller::new(BackendChoice::Epoll).unwrap();
        poller.register(waker.fd(), 1, true, false).unwrap();
        let mut events = Vec::new();

        // Edge 1: counter 0 -> n.
        waker.wake();
        poller.wait(500, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 1));

        // Same edge, already reported: ET reports nothing new.
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty(), "edge-triggered: no re-report");

        // Clear, then a new write is a new edge.
        waker.drain();
        waker.wake();
        poller.wait(500, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 1));
    }
}
