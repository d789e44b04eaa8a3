//! Wire-server configuration.
//!
//! Every field is set in code; the one environment variable is
//! `UP_NET_ADDR`, the listen address. It is read once per process, a
//! valid `host:port` overrides the default, and an invalid value warns
//! once on stderr and behaves like unset — never a panic, never silently
//! meaning something else.

use crate::frame::DEFAULT_MAX_FRAME;
use std::sync::OnceLock;
use std::time::Duration;

/// The readiness poller under the wire server's event loops: `epoll` on
/// Linux, `poll(2)` on every other unix. The build target decides, so the
/// type has one value and there is nothing to set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorMode;

impl ReactorMode {
    /// Lower-case name of this build's poller, as printed in reports.
    pub fn name(self) -> &'static str {
        if cfg!(target_os = "linux") {
            "epoll"
        } else {
            "poll"
        }
    }
}

/// Wire-server configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Listen address. Defaults from `UP_NET_ADDR` (must look like
    /// `host:port`), otherwise `127.0.0.1:0` (ephemeral port —
    /// [`WireServer::addr`](crate::WireServer::addr) reports the bound
    /// one).
    pub addr: String,
    /// Connection cap; excess connections are refused with a
    /// [`ConnLimit`](crate::ErrorCode::ConnLimit) error frame. Defaults
    /// to 1024.
    pub max_conns: usize,
    /// Idle timeout: a connection with no inbound frames for this long
    /// is closed (error frame + `Goodbye`) and its session reaped.
    /// Defaults to 30 s.
    pub idle_timeout: Duration,
    /// Largest accepted frame payload in bytes.
    pub max_frame: u32,
    /// Most in-flight queries per connection.
    pub max_inflight: u32,
    /// Which poller this build's event loops run on — reported, never
    /// chosen.
    pub reactor: ReactorMode,
    /// Event threads of the reactor. Defaults to
    /// `min(4, available cores)`.
    pub event_threads: usize,
    /// Per-connection outbound-queue bound in bytes. Once a
    /// connection's un-flushed replies exceed this, the peer is deemed
    /// a slow consumer: the server answers
    /// [`SlowConsumer`](crate::ErrorCode::SlowConsumer) and drops the
    /// connection instead of buffering without bound. The bound is a
    /// threshold, not a hard ceiling — a single frame is always accepted
    /// when the queue is below it.
    pub max_write_buf: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: addr_from_env().unwrap_or_else(|| "127.0.0.1:0".to_string()),
            max_conns: 1024,
            idle_timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 8,
            reactor: ReactorMode,
            event_threads: default_event_threads(),
            max_write_buf: 4 << 20,
        }
    }
}

/// `min(4, cores)`: enough loops to spread readiness work, never more
/// than the host can run.
fn default_event_threads() -> usize {
    let cores =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    cores.clamp(1, 4)
}

/// `UP_NET_ADDR`, read and parsed once per process.
fn addr_from_env() -> Option<String> {
    static CACHE: OnceLock<Option<String>> = OnceLock::new();
    CACHE.get_or_init(|| parse_addr(std::env::var("UP_NET_ADDR").ok().as_deref())).clone()
}

/// Testable core of [`addr_from_env`]: `raw` is the variable's value
/// (`None` when unset). The value is trimmed before it is checked; an
/// invalid one warns on stderr, quoted untrimmed so the user sees exactly
/// what was set, and yields `None`.
fn parse_addr(raw: Option<&str>) -> Option<String> {
    let raw = raw?;
    let v = raw.trim();
    // A listen address needs a host and a port; full validation happens
    // at bind time, this just catches obviously-not-an-address values.
    let valid = v
        .rsplit_once(':')
        .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
    if !valid {
        eprintln!("warning: ignoring invalid UP_NET_ADDR={raw:?} (expected host:port)");
        return None;
    }
    Some(v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_none_without_warning() {
        assert_eq!(parse_addr(None), None);
    }

    #[test]
    fn values_are_trimmed_and_invalid_ones_ignored() {
        assert_eq!(parse_addr(Some("0.0.0.0:5433")), Some("0.0.0.0:5433".to_string()));
        assert_eq!(parse_addr(Some(" 0.0.0.0:5433 ")), Some("0.0.0.0:5433".to_string()));
        assert_eq!(parse_addr(Some("fourteen")), None);
    }

    #[test]
    fn addr_knob_accepts_host_port_and_ignores_nonsense() {
        assert_eq!(parse_addr(Some("[::1]:0")), Some("[::1]:0".to_string()));
        assert_eq!(parse_addr(Some("not-an-addr")), None);
        assert_eq!(parse_addr(Some(":8080")), None, "empty host is rejected");
        assert_eq!(parse_addr(Some("host:99999")), None, "port must fit u16");
    }

    #[test]
    fn defaults_are_sane_without_env() {
        let c = NetConfig::default();
        assert!(c.addr.contains(':'));
        assert!(c.max_conns >= 1);
        assert!(c.idle_timeout > Duration::ZERO);
        assert!(c.max_frame >= 1024);
        assert!(c.max_inflight >= 1);
        assert_eq!(c.reactor.name(), if cfg!(target_os = "linux") { "epoll" } else { "poll" });
        assert!((1..=64).contains(&c.event_threads));
        assert!(c.max_write_buf >= c.max_frame as usize, "one max frame must fit");
    }
}
