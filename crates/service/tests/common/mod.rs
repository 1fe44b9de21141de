//! The socket suites' shared harness: a real server on an ephemeral local
//! port for the length of one session, which a failed assertion stops
//! instead of hanging.

use annot_service::{serve, Service, ShutdownFlag};
use std::net::{SocketAddr, TcpListener};

/// Serves `service` with `workers` accept threads while `session` runs
/// against the server's address; the session ends the server with
/// `SHUTDOWN`.  A session that panics triggers the shutdown flag on its
/// way out, after its own connections closed, so the server's scope
/// returns and the panic fails the test instead of waiting forever on a
/// server that was never told to stop.
pub fn serve_during<R>(
    service: &Service,
    workers: usize,
    session: impl FnOnce(SocketAddr) -> R,
) -> R {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = ShutdownFlag::new();
    std::thread::scope(|s| {
        s.spawn(|| serve(&listener, service, &shutdown, workers));
        let _stop = StopOnUnwind {
            shutdown: &shutdown,
            addr,
        };
        session(addr)
    })
}

/// Triggers the shutdown flag when dropped by an unwinding panic.
struct StopOnUnwind<'a> {
    shutdown: &'a ShutdownFlag,
    addr: SocketAddr,
}

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shutdown.trigger(self.addr);
        }
    }
}
