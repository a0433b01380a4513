//! Wall-clock measurement helper for the experiment harness.

use std::time::{Duration, Instant};

/// Run `f`, returning its result and elapsed wall-clock time.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_result() {
        let (v, d) = time(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d < Duration::from_secs(1));
    }
}
