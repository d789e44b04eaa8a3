//! Wire-server tuning knobs, with `UP_NET_*` environment defaults.
//!
//! Same contract as `UP_SIM_EXEC` (`up_gpusim::env`): each variable is
//! read once per process, a valid value overrides the default, and an
//! invalid value warns once on stderr and behaves like unset — never a
//! panic, never silently meaning something else.

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
    /// [`ConnLimit`](crate::ErrorCode::ConnLimit) error frame.
    /// Defaults from `UP_NET_MAX_CONNS` (≥ 1), otherwise 1024.
    pub max_conns: usize,
    /// Idle timeout: a connection with no inbound frames for this long
    /// is closed (error frame + `Goodbye`) and its session reaped.
    /// Defaults from `UP_NET_IDLE_S` (seconds, > 0), otherwise 30 s.
    pub idle_timeout: Duration,
    /// Largest accepted frame payload in bytes.
    pub max_frame: u32,
    /// Most in-flight queries per connection.
    pub max_inflight: u32,
    /// Which poller this build's event loops run on — reported, never
    /// chosen.
    pub reactor: ReactorMode,
    /// Event threads of the reactor. Defaults from
    /// `UP_NET_EVENT_THREADS` (`1..=64`), otherwise
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
            max_conns: max_conns_from_env().unwrap_or(1024),
            idle_timeout: Duration::from_secs_f64(idle_s_from_env().unwrap_or(30.0)),
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 8,
            reactor: ReactorMode,
            event_threads: event_threads_from_env().unwrap_or_else(default_event_threads),
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

// The warn-once parsing core lives in `up_gpusim::env` (shared by every
// UP_* knob across the workspace); re-imported here so the per-knob
// parse rules and tests below stay local.
pub(crate) use up_gpusim::env::parse_value as parse_env_value;

pub(crate) fn parse_addr(v: &str) -> Option<String> {
    // A listen address needs a host and a port; full validation happens
    // at bind time, this just catches obviously-not-an-address values.
    let (host, port) = v.rsplit_once(':')?;
    if host.is_empty() || port.parse::<u16>().is_err() {
        return None;
    }
    Some(v.to_string())
}

pub(crate) fn parse_max_conns(v: &str) -> Option<usize> {
    v.parse::<usize>().ok().filter(|&n| n >= 1)
}

pub(crate) fn parse_idle_s(v: &str) -> Option<f64> {
    v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0)
}

pub(crate) fn parse_event_threads(v: &str) -> Option<usize> {
    v.parse::<usize>().ok().filter(|&n| (1..=64).contains(&n))
}

fn event_threads_from_env() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        parse_env_value(
            "UP_NET_EVENT_THREADS",
            "an event-thread count in 1..=64",
            std::env::var("UP_NET_EVENT_THREADS").ok().as_deref(),
            parse_event_threads,
        )
    })
}

fn addr_from_env() -> Option<String> {
    static CACHE: OnceLock<Option<String>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            parse_env_value(
                "UP_NET_ADDR",
                "host:port",
                std::env::var("UP_NET_ADDR").ok().as_deref(),
                parse_addr,
            )
        })
        .clone()
}

fn max_conns_from_env() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        parse_env_value(
            "UP_NET_MAX_CONNS",
            "a connection count >= 1",
            std::env::var("UP_NET_MAX_CONNS").ok().as_deref(),
            parse_max_conns,
        )
    })
}

fn idle_s_from_env() -> Option<f64> {
    static CACHE: OnceLock<Option<f64>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        parse_env_value(
            "UP_NET_IDLE_S",
            "idle seconds > 0",
            std::env::var("UP_NET_IDLE_S").ok().as_deref(),
            parse_idle_s,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_parse_valid_values_and_ignore_nonsense() {
        // UP_NET_ADDR: host:port shapes pass, garbage warns → None.
        assert_eq!(
            parse_env_value("UP_NET_ADDR", "host:port", Some("0.0.0.0:5433"), parse_addr),
            Some("0.0.0.0:5433".to_string())
        );
        assert_eq!(
            parse_env_value("UP_NET_ADDR", "host:port", Some("[::1]:0"), parse_addr),
            Some("[::1]:0".to_string())
        );
        assert_eq!(parse_env_value("UP_NET_ADDR", "host:port", None, parse_addr), None);
        assert_eq!(
            parse_env_value("UP_NET_ADDR", "host:port", Some("not-an-addr"), parse_addr),
            None
        );
        assert_eq!(
            parse_env_value("UP_NET_ADDR", "host:port", Some(":8080"), parse_addr),
            None,
            "empty host is rejected"
        );
        assert_eq!(
            parse_env_value("UP_NET_ADDR", "host:port", Some("host:99999"), parse_addr),
            None,
            "port must fit u16"
        );

        // UP_NET_MAX_CONNS: positive integers only.
        assert_eq!(
            parse_env_value("UP_NET_MAX_CONNS", "a count", Some("512"), parse_max_conns),
            Some(512)
        );
        assert_eq!(parse_env_value("UP_NET_MAX_CONNS", "a count", Some("0"), parse_max_conns), None);
        assert_eq!(
            parse_env_value("UP_NET_MAX_CONNS", "a count", Some("many"), parse_max_conns),
            None
        );

        // UP_NET_IDLE_S: positive finite seconds (fractions allowed).
        assert_eq!(
            parse_env_value("UP_NET_IDLE_S", "seconds", Some("2.5"), parse_idle_s),
            Some(2.5)
        );
        assert_eq!(
            parse_env_value("UP_NET_IDLE_S", "seconds", Some(" 30 "), parse_idle_s),
            Some(30.0),
            "values are trimmed before parsing"
        );
        assert_eq!(parse_env_value("UP_NET_IDLE_S", "seconds", Some("-1"), parse_idle_s), None);
        assert_eq!(parse_env_value("UP_NET_IDLE_S", "seconds", Some("inf"), parse_idle_s), None);
    }

    #[test]
    fn event_threads_knob_bounds_to_1_through_64() {
        let p = |raw| {
            parse_env_value("UP_NET_EVENT_THREADS", "1..=64", raw, parse_event_threads)
        };
        assert_eq!(p(Some("1")), Some(1));
        assert_eq!(p(Some("8")), Some(8));
        assert_eq!(p(Some("64")), Some(64));
        assert_eq!(p(Some("0")), None);
        assert_eq!(p(Some("65")), None);
        assert_eq!(p(Some("four")), None);
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
