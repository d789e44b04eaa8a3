//! Session lifecycle: connect/disconnect, per-session execution profile,
//! and per-session counters.
//!
//! A session is the unit of client identity — the thing a per-tenant
//! quota or an audit log would hang off. Today it carries the execution
//! profile used for the session's queries (so one client can run
//! `PostgresLike` while another runs `UltraPrecise` against the same
//! data) and simple usage counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use up_engine::Profile;

/// Opaque handle to a connected session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

impl core::fmt::Display for SessionId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Per-session usage counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Queries submitted by this session.
    pub queries: u64,
    /// Of those, how many errored.
    pub errors: u64,
}

struct SessionState {
    profile: Profile,
    /// Fair-share weight for deficit round-robin scheduling.
    weight: f64,
    stats: SessionStats,
}

/// Tracks connected sessions. All methods take `&self`; the map is
/// mutex-guarded (session churn is rare next to query traffic).
pub struct SessionManager {
    next_id: AtomicU64,
    total: AtomicU64,
    sessions: Mutex<HashMap<u64, SessionState>>,
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionManager {
    /// New empty manager.
    pub fn new() -> SessionManager {
        SessionManager {
            next_id: AtomicU64::new(1),
            total: AtomicU64::new(0),
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// Opens a session running under `profile`.
    pub fn connect(&self, profile: Profile) -> SessionId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().expect("session map poisoned").insert(
            id,
            SessionState {
                profile,
                weight: 1.0,
                stats: SessionStats::default(),
            },
        );
        SessionId(id)
    }

    /// Closes a session; returns its final stats, or `None` if unknown.
    pub fn disconnect(&self, id: SessionId) -> Option<SessionStats> {
        self.sessions
            .lock()
            .expect("session map poisoned")
            .remove(&id.0)
            .map(|s| s.stats)
    }

    /// The profile a session's queries run under.
    pub fn profile(&self, id: SessionId) -> Option<Profile> {
        self.sessions.lock().expect("session map poisoned").get(&id.0).map(|s| s.profile)
    }

    /// Whether a session is still connected (no activity recorded).
    pub fn contains(&self, id: SessionId) -> bool {
        self.sessions.lock().expect("session map poisoned").contains_key(&id.0)
    }

    /// A session's fair-share scheduling weight (default 1.0).
    pub fn weight(&self, id: SessionId) -> Option<f64> {
        self.sessions
            .lock()
            .expect("session map poisoned")
            .get(&id.0)
            .map(|s| s.weight)
    }

    /// Changes a session's fair-share weight; false if the session is
    /// unknown. Non-finite or non-positive weights fall back to 1.0.
    pub fn set_weight(&self, id: SessionId, weight: f64) -> bool {
        match self.sessions.lock().expect("session map poisoned").get_mut(&id.0) {
            Some(s) => {
                s.weight = if weight.is_finite() && weight > 0.0 { weight } else { 1.0 };
                true
            }
            None => false,
        }
    }

    /// Records one query (and whether it errored) against a session.
    /// Disconnected sessions are ignored — their in-flight queries still
    /// finish, there is just nowhere to account them.
    pub fn record_query(&self, id: SessionId, ok: bool) {
        if let Some(s) = self.sessions.lock().expect("session map poisoned").get_mut(&id.0) {
            s.stats.queries += 1;
            if !ok {
                s.stats.errors += 1;
            }
        }
    }

    /// A session's current stats.
    pub fn stats(&self, id: SessionId) -> Option<SessionStats> {
        self.sessions
            .lock()
            .expect("session map poisoned")
            .get(&id.0)
            .map(|s| s.stats)
    }

    /// Sessions currently connected.
    pub fn active(&self) -> usize {
        self.sessions.lock().expect("session map poisoned").len()
    }

    /// Sessions ever connected.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_disconnect_lifecycle() {
        let m = SessionManager::new();
        let a = m.connect(Profile::UltraPrecise);
        let b = m.connect(Profile::PostgresLike);
        assert_ne!(a, b);
        assert_eq!(m.active(), 2);
        assert_eq!(m.total(), 2);
        assert_eq!(m.profile(a), Some(Profile::UltraPrecise));
        assert_eq!(m.profile(b), Some(Profile::PostgresLike));
        assert!(m.contains(a) && m.contains(b));

        m.record_query(a, true);
        m.record_query(a, false);
        let stats = m.disconnect(a).unwrap();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(m.active(), 1);
        assert_eq!(m.total(), 2, "total is monotonic");
        assert!(m.profile(a).is_none());
        assert!(!m.contains(a));
        assert!(m.disconnect(a).is_none(), "double disconnect is None");
    }

    #[test]
    fn weights_default_to_one_and_clamp_nonsense() {
        let m = SessionManager::new();
        let s = m.connect(Profile::UltraPrecise);
        assert_eq!(m.weight(s), Some(1.0));
        assert!(m.set_weight(s, 3.0));
        assert_eq!(m.weight(s), Some(3.0));
        assert!(m.set_weight(s, f64::NAN));
        assert_eq!(m.weight(s), Some(1.0), "non-finite falls back to 1");
        assert!(m.set_weight(s, -2.0));
        assert_eq!(m.weight(s), Some(1.0), "non-positive falls back to 1");
        assert!(!m.set_weight(SessionId(999), 2.0));
        assert!(m.weight(SessionId(999)).is_none());
    }

    #[test]
    fn ids_are_unique_under_concurrency() {
        let m = std::sync::Arc::new(SessionManager::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    (0..50).map(|_| m.connect(Profile::UltraPrecise).0).collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
        assert_eq!(m.active(), 400);
        assert_eq!(m.total(), 400);
    }
}
