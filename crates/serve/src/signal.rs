//! SIGTERM/SIGINT → a process-wide shutdown flag and a wakeup.
//!
//! The workspace is offline (no `signal-hook`/`ctrlc` crates), so this
//! registers handlers through libc's `signal(2)` directly — std already
//! links libc on Linux. The handler stores to a static atomic
//! and writes one byte to a self-pipe, both async-signal-safe;
//! [`wait_for_shutdown`] blocks reading that pipe, so the caller runs
//! the graceful drain on a normal thread as soon as the signal lands.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

mod pipe {
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::Once;

    extern "C" {
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    }

    const F_SETFD: c_int = 2;
    const F_SETFL: c_int = 4;
    const FD_CLOEXEC: c_int = 1;
    const O_NONBLOCK: c_int = 0o4000;

    /// Read and write ends of the wake pipe; -1 until [`open`] ran, or
    /// when `pipe(2)` failed (waiters then poll the flag).
    static READ_FD: AtomicI32 = AtomicI32::new(-1);
    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);
    static OPEN: Once = Once::new();

    /// Create the pipe once per process. The write end is non-blocking
    /// so a handler never stalls on a full pipe (a wakeup is pending
    /// then anyway); the read end blocks.
    pub fn open() {
        OPEN.call_once(|| {
            let mut fds = [0 as c_int; 2];
            // SAFETY: `fds` is a writable array of the two ints pipe(2)
            // fills.
            if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
                return;
            }
            // SAFETY: fcntl(2) on the two descriptors pipe(2) just
            // returned; F_SETFD/F_SETFL take an int argument.
            unsafe {
                fcntl(fds[0], F_SETFD, FD_CLOEXEC);
                fcntl(fds[1], F_SETFD, FD_CLOEXEC);
                fcntl(fds[1], F_SETFL, O_NONBLOCK);
            }
            READ_FD.store(fds[0], Ordering::SeqCst);
            WRITE_FD.store(fds[1], Ordering::SeqCst);
        });
    }

    /// Async-signal-safe: one `write(2)` of one byte.
    pub fn wake() {
        let fd = WRITE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let byte = 1u8;
            // SAFETY: writes one byte from a live local to a descriptor
            // this module opened and never closes.
            unsafe {
                write(fd, &byte, 1);
            }
        }
    }

    /// Block until a byte arrives or a signal interrupts the read.
    /// `false` when there is no pipe to block on or it failed.
    pub fn block() -> bool {
        let fd = READ_FD.load(Ordering::SeqCst);
        if fd < 0 {
            return false;
        }
        let mut byte = 0u8;
        // SAFETY: reads at most one byte into a live local from a
        // descriptor this module opened and never closes.
        let n = unsafe { read(fd, &mut byte, 1) };
        n > 0 || std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted
    }
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
    pipe::wake();
}

/// Install SIGINT and SIGTERM handlers that set the shutdown flag and
/// wake [`wait_for_shutdown`].
pub fn install_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    pipe::open();
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `on_signal` only stores to an atomic and calls write(2),
    // both async-signal-safe, and has the `void (*)(int)` signature
    // signal(2) expects.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Block until a handler installed by [`install_handlers`] has run.
/// This sleeps in `read(2)` on the self-pipe and returns as soon as the
/// signal lands; if `pipe(2)` failed it polls the flag every 50 ms.
pub fn wait_for_shutdown() {
    while !SHUTDOWN.load(Ordering::SeqCst) {
        if pipe::block() {
            continue;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A SIGTERM raised in-process wakes a blocked waiter through the
    /// self-pipe, without waiting out a poll interval.
    #[test]
    fn sigterm_wakes_the_waiter() {
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        install_handlers();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            wait_for_shutdown();
            let _ = tx.send(());
        });
        // The waiter is blocked in read(2): nothing has signalled yet.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        // SAFETY: raise(3) with SIGTERM, whose handler was installed
        // above and only sets a flag and writes to the pipe.
        assert_eq!(unsafe { raise(15) }, 0);
        assert!(SHUTDOWN.load(Ordering::SeqCst));
        rx.recv_timeout(Duration::from_secs(5))
            .expect("wait_for_shutdown returns after SIGTERM");
        waiter.join().expect("waiter thread");
    }
}
