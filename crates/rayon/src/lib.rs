//! Vendored, dependency-free stand-in for `rayon`.
//!
//! The build sandbox has no crates.io access, so the workspace vendors the
//! subset of the `rayon` API the campaigns use: `into_par_iter()` /
//! `par_iter()` followed by `map`, then a terminal `reduce`, `for_each`,
//! `sum` or `collect`. Work is executed on real OS threads via
//! [`std::thread::scope`], chunked evenly over the available cores, so
//! campaigns still parallelize; there is simply no work stealing.
//!
//! Thread count: `RAYON_NUM_THREADS` if set, else
//! [`std::thread::available_parallelism`].

use std::ops::Range;
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// Effective worker count.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Split `items` into at most `parts` contiguous chunks of near-equal size.
fn chunked<T>(mut items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let parts = parts.max(1);
    let chunk = items.len().div_ceil(parts).max(1);
    let mut out = Vec::with_capacity(parts);
    while items.len() > chunk {
        let rest = items.split_off(chunk);
        out.push(std::mem::replace(&mut items, rest));
    }
    if !items.is_empty() {
        out.push(items);
    }
    out
}

/// A materialized parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// `ParIter` with a mapping function applied per item on the worker.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParIter<T> {
    pub fn map<F, R>(self, f: F) -> ParMap<T, F>
    where
        F: Fn(T) -> R + Send + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Send + Sync,
    {
        self.map(f).reduce(|| (), |_, _| ());
    }
}

impl<T, F, R> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    /// Chain another map, composing the closures.
    pub fn map<G, S>(self, g: G) -> ParMap<T, impl Fn(T) -> S + Send + Sync>
    where
        G: Fn(R) -> S + Send + Sync,
        S: Send,
    {
        let f = self.f;
        ParMap {
            items: self.items,
            f: move |t| g(f(t)),
        }
    }

    /// Parallel fold-and-combine. `identity` seeds each worker; `op` folds
    /// both within and across workers, so it must be associative (the
    /// campaigns only combine commutative counters).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R + Send + Sync,
        OP: Fn(R, R) -> R + Send + Sync,
    {
        let ParMap { items, f } = self;
        let workers = current_num_threads().min(items.len());
        if workers <= 1 {
            return items.into_iter().map(f).fold(identity(), op);
        }
        let f = &f;
        let op = &op;
        let identity = &identity;
        let partials: Vec<R> = std::thread::scope(|s| {
            let handles: Vec<_> = chunked(items, workers)
                .into_iter()
                .map(|chunk| s.spawn(move || chunk.into_iter().map(f).fold(identity(), op)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        partials.into_iter().fold(identity(), op)
    }

    /// Order-preserving parallel collect.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let ParMap { items, f } = self;
        let workers = current_num_threads().min(items.len());
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let f = &f;
        let partials: Vec<Vec<R>> = std::thread::scope(|s| {
            let handles: Vec<_> = chunked(items, workers)
                .into_iter()
                .map(|chunk| s.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        partials.into_iter().flatten().collect()
    }

    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Send + Sync,
    {
        self.map(g).reduce(|| (), |_, _| ());
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R> + Send,
        R: Clone,
    {
        let parts: Vec<R> = self.collect();
        parts.into_iter().sum()
    }
}

/// `into_par_iter()` — entry point mirroring rayon's trait of the same name.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for Range<u32> {
    type Item = u32;
    fn into_par_iter(self) -> ParIter<u32> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `par_iter()` over borrowed slices.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn map_reduce_matches_sequential() {
        let par: u64 = (0usize..10_000)
            .into_par_iter()
            .map(|i| (i as u64) * 3 + 1)
            .reduce(|| 0, |a, b| a + b);
        let seq: u64 = (0u64..10_000).map(|i| i * 3 + 1).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn chained_maps_compose() {
        let v: Vec<u64> = (0usize..100)
            .into_par_iter()
            .map(|i| i as u64)
            .map(|x| x * x)
            .collect();
        assert_eq!(v.len(), 100);
        assert_eq!(v[10], 100);
        assert_eq!(v[99], 99 * 99);
    }

    #[test]
    fn collect_preserves_order() {
        let v: Vec<usize> = (0usize..5000).into_par_iter().map(|i| i).collect();
        assert!(v.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn for_each_runs_every_item() {
        let hits = AtomicU64::new(0);
        (0usize..2048).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2048);
    }

    #[test]
    fn par_iter_over_slices() {
        let data: Vec<u32> = (0..1000).collect();
        let sum: u64 = data
            .par_iter()
            .map(|&x| x as u64)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, (0..1000u64).sum());
    }

    #[test]
    fn chunking_covers_all_items() {
        for n in [0usize, 1, 7, 8, 9, 100] {
            for parts in [1usize, 3, 8, 200] {
                let chunks = super::chunked((0..n).collect::<Vec<_>>(), parts);
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
            }
        }
    }
}
