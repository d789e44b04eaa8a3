//! The readiness poller behind the reactor, as thin raw bindings to the
//! platform libc: `epoll` + `eventfd` on Linux, `poll(2)` + a socket
//! pair on every other unix. The build picks one; nothing selects it at
//! run time.
//!
//! The workspace is offline (no `libc` crate), but `std` already links
//! the platform libc, so declaring the handful of symbols we use is
//! both cheap and dependency-free. Everything here is wrapped by safe
//! owner types ([`Poller`], [`Waker`]) — the rest of the crate never
//! sees a raw fd without an owner.
//!
//! Both implementations are level-triggered and share one interest /
//! readiness bit set: `POLLIN`/`POLLOUT`/`POLLERR`/`POLLHUP` have the
//! values of their `EPOLL*` namesakes on every unix this builds for.

use std::io;

pub const IN: u32 = 0x001;
pub const OUT: u32 = 0x004;
pub const ERR: u32 = 0x008;
pub const HUP: u32 = 0x010;

/// One readiness report. Laid out as `struct epoll_event` so the epoll
/// poller can hand the kernel a slice of these: on x86-64 the kernel ABI
/// packs it so the 64-bit payload sits at offset 4; other arches use
/// natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct Event {
    pub events: u32,
    /// Opaque per-registration token (we store generation-tagged slab
    /// slots here).
    pub data: u64,
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

#[cfg(target_os = "linux")]
pub use epoll::{Poller, Waker};
#[cfg(not(target_os = "linux"))]
pub use poll::{Poller, Waker};

#[cfg(target_os = "linux")]
mod epoll {
    use super::{cvt, Event};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EFD_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
        fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Owned epoll instance; closed on drop.
    pub struct Poller {
        fd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: no pointers; the returned fd is owned by `Poller`.
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { fd })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = Event { events, data: token };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
        }

        /// Registers `fd` with the given interest set and token.
        pub fn add(&mut self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Rewrites the interest set for an already-registered `fd`.
        pub fn modify(&mut self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Deregisters `fd`.
        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            // Pre-2.6.9 kernels demanded a non-null event for DEL; passing
            // one is harmless everywhere.
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks up to `timeout_ms` (-1 = forever) and fills `events`;
        /// returns how many fired. Retries `EINTR` internally.
        pub fn wait(&mut self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: the kernel writes at most `events.len()` entries
                // into the slice, whose layout is `struct epoll_event`.
                let n = unsafe {
                    epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
                };
                match cvt(n) {
                    Ok(n) => return Ok(n as usize),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `fd` came from `epoll_create1` and is closed once.
            unsafe {
                close(self.fd);
            }
        }
    }

    /// Nonblocking eventfd used to kick a thread out of [`Poller::wait`]
    /// from another thread. The fd is owned by a [`File`], so drop closes
    /// it and `read`/`write` go through std.
    pub struct Waker {
        file: File,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            // SAFETY: no pointers are passed.
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            // SAFETY: `fd` is a fresh, valid descriptor nothing else owns.
            Ok(Waker { file: unsafe { File::from_raw_fd(fd) } })
        }

        /// The fd to register for [`IN`](super::IN).
        pub fn raw_fd(&self) -> RawFd {
            self.file.as_raw_fd()
        }

        /// Posts a wakeup. An `EAGAIN` (counter at max) still wakes the
        /// poller, so it is ignored like every other failure here — the
        /// worst case is a spurious tick.
        pub fn wake(&self) {
            use std::io::Write;
            let one = 1u64.to_ne_bytes();
            let _ = (&self.file).write(&one);
        }

        /// Drains the counter so level-triggered polling goes quiet again.
        pub fn drain(&self) {
            use std::io::Read;
            let mut buf = [0u8; 8];
            let _ = (&self.file).read(&mut buf);
        }
    }
}

/// The portable poller. Only non-Linux builds run it; Linux compiles it
/// for the unit test below, so CI exercises the shim it cannot deploy.
#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    use super::{cvt, Event, ERR, HUP, IN, OUT};
    use std::io::{self, ErrorKind};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;

    /// `POLLNVAL`: the fd was closed while registered — an error to us.
    const NVAL: i16 = 0x020;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }

    /// Same surface and contract as the epoll `Poller`, over a registered
    /// set the kernel scans on every wait: O(fds) where epoll is O(ready),
    /// which is the price of portability.
    pub struct Poller {
        fds: Vec<PollFd>,
        /// `tokens[i]` belongs to `fds[i]`.
        tokens: Vec<u64>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { fds: Vec::new(), tokens: Vec::new() })
        }

        fn position(&self, fd: RawFd) -> io::Result<usize> {
            self.fds.iter().position(|p| p.fd == fd).ok_or_else(|| ErrorKind::NotFound.into())
        }

        pub fn add(&mut self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            if self.position(fd).is_ok() {
                return Err(ErrorKind::AlreadyExists.into());
            }
            self.fds.push(PollFd { fd, events: events as i16, revents: 0 });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds[i].events = events as i16;
            self.tokens[i] = token;
            Ok(())
        }

        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.position(fd)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        pub fn wait(&mut self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: `fds` is a live, exclusively borrowed array of
                // `struct pollfd`; the kernel writes only `revents`.
                let n =
                    unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, timeout_ms) };
                match cvt(n) {
                    Ok(_) => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            let ready = self.fds.iter().zip(&self.tokens).filter(|(p, _)| p.revents != 0);
            let mut filled = 0;
            for ((p, &token), out) in ready.zip(events) {
                let nval = if p.revents & NVAL != 0 { ERR } else { 0 };
                let bits = p.revents as u32 & (IN | OUT | ERR | HUP) | nval;
                *out = Event { events: bits, data: token };
                filled += 1;
            }
            Ok(filled)
        }
    }

    /// A nonblocking socket pair used to kick a thread out of
    /// [`Poller::wait`] from another thread: `wake` writes a byte to one
    /// end, the poller watches the other.
    pub struct Waker {
        rx: UnixStream,
        tx: UnixStream,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Waker { rx, tx })
        }

        /// The fd to register for [`IN`].
        pub fn raw_fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }

        /// Posts a wakeup. A full pipe means wakeups are already pending,
        /// so that failure is ignored like every other one here — the
        /// worst case is a spurious tick.
        pub fn wake(&self) {
            use std::io::Write;
            let _ = (&self.tx).write(&[1]);
        }

        /// Drains the pending bytes so level-triggered polling goes quiet
        /// again.
        pub fn drain(&self) {
            use std::io::Read;
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract the reactor relies on, against one implementation.
    macro_rules! waker_wakes_poller_and_drains_quiet {
        ($imp:ident) => {
            #[test]
            fn $imp() {
                let mut poller = super::$imp::Poller::new().unwrap();
                let waker = super::$imp::Waker::new().unwrap();
                poller.add(waker.raw_fd(), IN, 7).unwrap();

                let mut events = [Event { events: 0, data: 0 }; 4];
                // Quiet at first.
                assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

                waker.wake();
                waker.wake();
                let n = poller.wait(&mut events, 1000).unwrap();
                assert_eq!(n, 1);
                let ev = events[0];
                assert_eq!({ ev.data }, 7);
                assert_ne!({ ev.events } & IN, 0);

                // One drain swallows every pending wakeup; the fd goes quiet.
                waker.drain();
                assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

                // Interest can be rewritten (the token with it) and removed.
                waker.wake();
                poller.modify(waker.raw_fd(), IN | OUT, 9).unwrap();
                assert_eq!(poller.wait(&mut events, 0).unwrap(), 1);
                let ev = events[0];
                assert_eq!({ ev.data }, 9);
                poller.modify(waker.raw_fd(), 0, 9).unwrap();
                assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "no interest, no report");
                poller.delete(waker.raw_fd()).unwrap();
                assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
                assert!(poller.delete(waker.raw_fd()).is_err(), "already gone");
            }
        };
    }

    #[cfg(target_os = "linux")]
    waker_wakes_poller_and_drains_quiet!(epoll);
    waker_wakes_poller_and_drains_quiet!(poll);
}
