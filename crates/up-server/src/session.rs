//! Session lifecycle: connect/disconnect and the per-session execution
//! profile.
//!
//! A session is the unit of client identity — the thing a per-tenant
//! quota or an audit log would hang off. It carries the execution
//! profile used for the session's queries (so one client can run
//! `PostgresLike` while another runs `UltraPrecise` against the same
//! data). Its scheduling weight lives in the admission queue, and query
//! counts live in the server metrics.

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

/// Tracks connected sessions. All methods take `&self`; the map is
/// mutex-guarded (session churn is rare next to query traffic).
pub struct SessionManager {
    next_id: AtomicU64,
    total: AtomicU64,
    sessions: Mutex<HashMap<u64, Profile>>,
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
        self.sessions.lock().expect("session map poisoned").insert(id, profile);
        SessionId(id)
    }

    /// Closes a session; false if it was unknown.
    pub fn disconnect(&self, id: SessionId) -> bool {
        self.sessions.lock().expect("session map poisoned").remove(&id.0).is_some()
    }

    /// The profile a session's queries run under.
    pub fn profile(&self, id: SessionId) -> Option<Profile> {
        self.sessions.lock().expect("session map poisoned").get(&id.0).copied()
    }

    /// Whether a session is still connected.
    pub fn contains(&self, id: SessionId) -> bool {
        self.sessions.lock().expect("session map poisoned").contains_key(&id.0)
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

        assert!(m.disconnect(a));
        assert_eq!(m.active(), 1);
        assert_eq!(m.total(), 2, "total is monotonic");
        assert!(m.profile(a).is_none());
        assert!(!m.contains(a));
        assert!(!m.disconnect(a), "double disconnect is false");
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
