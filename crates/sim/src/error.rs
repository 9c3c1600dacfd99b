//! Error types for the simulator.

use std::error::Error;
use std::fmt;

/// An invalid [`crate::config::MachineConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Processor count is zero or exceeds [`crate::config::MAX_PROCS`].
    BadProcCount(usize),
    /// Zero processors per node or nodes per router.
    BadNodeShape,
    /// Page or line size is not a power of two.
    NotPowerOfTwo,
    /// Page size is smaller than the cache line size.
    PageSmallerThanLine,
    /// Cache size, associativity and line size are inconsistent.
    BadCacheGeometry,
    /// Per-node memory cannot hold even one page.
    BadMemoryCapacity,
    /// The process mapping is not a valid permutation for the machine shape.
    BadMapping(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadProcCount(n) => {
                write!(f, "processor count {n} outside 1..={}", crate::config::MAX_PROCS)
            }
            ConfigError::BadNodeShape => write!(f, "processors per node and nodes per router must be positive"),
            ConfigError::NotPowerOfTwo => write!(f, "page and cache line sizes must be powers of two"),
            ConfigError::PageSmallerThanLine => write!(f, "page size is smaller than the cache line size"),
            ConfigError::BadCacheGeometry => write!(f, "cache size must be a power-of-two number of sets times associativity times line size"),
            ConfigError::BadMemoryCapacity => write!(f, "per-node memory must hold at least one page"),
            ConfigError::BadMapping(msg) => write!(f, "invalid process mapping: {msg}"),
        }
    }
}

impl Error for ConfigError {}

/// A failure while running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// Every runnable processor is blocked on a lock or barrier: the
    /// application deadlocked. The message lists the blocked processors.
    Deadlock(String),
    /// An application thread panicked; the payload is its panic message.
    AppPanic(String),
    /// The host could not start a processor's thread; the payload names
    /// the processor and the host's error.
    Spawn(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid machine configuration: {e}"),
            SimError::Deadlock(who) => write!(f, "application deadlocked: {who}"),
            SimError::AppPanic(msg) => write!(f, "application panicked: {msg}"),
            SimError::Spawn(msg) => write!(f, "cannot start processor thread: {msg}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = SimError::from(ConfigError::BadProcCount(0));
        assert!(e.to_string().contains("processor count"));
        assert!(e.source().is_some());
        let d = SimError::Deadlock("procs [1, 2] at barrier 0".into());
        assert!(d.to_string().contains("deadlocked"));
        assert!(d.source().is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
        assert_send_sync::<SimError>();
    }
}
