//! Work-stealing batch validation.
//!
//! One compiled schema, many documents: the common shape of corpus
//! validation (the paper's experiments re-validate whole document sets
//! per schema). The engine here is a small scoped work-stealing pool:
//!
//! * each worker owns a deque, seeded round-robin; it pops its own work
//!   from the front and steals from the *back* of other workers' deques
//!   when it runs dry, so a straggler document never serializes the tail
//!   of the batch the way the old one-scoped-thread-per-chunk scheme did
//!   (a chunk with one pathological document idled every other core);
//! * a shared injector queue accepts jobs *streamed in* after the
//!   workers have started — used for file-path batches, where the main
//!   thread feeds paths while workers are already parsing;
//! * every job carries its input index and results are sorted by it, so
//!   reports come back in input order regardless of worker count or
//!   scheduling — `--jobs 1` and `--jobs 8` produce identical output
//!   (`tests/batch_determinism.rs` pins this).
//!
//! Workers share the compiled schema read-only; no job spawns further
//! jobs, so a worker may exit once the injector is closed and every
//! deque is empty (work already claimed by another worker needs no
//! tracking — its result is on that worker's local list).

use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use xmltree::Document;

use crate::validate::{BxsdReport, CompiledBxsd, ValidateOptions};

/// The outcome of validating one file of a batch.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// The path as given by the caller.
    pub path: String,
    /// The validation report, or the I/O / parse error that prevented
    /// one from existing (the streamed analogue of "failed to parse").
    pub report: Result<BxsdReport, String>,
}

impl FileReport {
    /// Whether the file was read, parsed, and found conforming.
    pub fn is_valid(&self) -> bool {
        matches!(&self.report, Ok(r) if r.is_valid())
    }
}

/// Default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Clamps a requested worker count to the cores actually available.
///
/// Every pool entry point funnels through this: the workers are
/// CPU-bound (parsing + automaton runs, no blocking I/O overlap worth
/// speaking of), so asking for more threads than cores just adds
/// context-switch and steal-scan overhead — `--jobs 64` on a 4-core box
/// used to spawn 64 threads that fought over 4 cores. Zero means "pick
/// for me" and resolves to [`default_jobs`].
pub fn clamp_jobs(jobs: usize) -> usize {
    let cores = default_jobs();
    if jobs == 0 {
        cores
    } else {
        jobs.min(cores)
    }
}

/// Runs `f` over `items` on the work-stealing pool, returning results in
/// input order — the generic primitive under batch validation, shared by
/// the parallel lint paths. `jobs` is clamped to the item count; `jobs
/// <= 1` maps inline on the calling thread (the deterministic baseline).
/// Output is identical for every `jobs` value because each job carries
/// its input index and results are sorted by it.
///
/// Unlike the `validate_*` wrappers this does **not** apply
/// [`clamp_jobs`] — callers that take a user-facing `--jobs` flag clamp
/// first; tests that deliberately oversubscribe pass raw counts.
pub fn map_indexed<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = jobs.min(items.len()).max(1);
    run_pool(seed_queues(items.into_iter(), n), std::iter::empty(), f)
}

/// Jobs not yet claimed by a worker. `closed` flips once the feeder is
/// done; workers then drain and exit.
struct Injector<T> {
    jobs: VecDeque<(usize, T)>,
    closed: bool,
}

struct Shared<T> {
    /// One deque per worker. Owner pops the front; thieves pop the back,
    /// so contention lands on opposite ends.
    queues: Vec<Mutex<VecDeque<(usize, T)>>>,
    injector: Mutex<Injector<T>>,
    /// Signalled on every injector push and on close.
    cv: Condvar,
}

impl<T> Shared<T> {
    fn try_claim(&self, me: usize) -> Option<(usize, T)> {
        if let Some(job) = self.queues[me].lock().unwrap().pop_front() {
            return Some(job);
        }
        if let Some(job) = self.injector.lock().unwrap().jobs.pop_front() {
            return Some(job);
        }
        (0..self.queues.len())
            .filter(|&j| j != me)
            .find_map(|j| self.queues[j].lock().unwrap().pop_back())
    }
}

fn worker_loop<T, R>(
    shared: &Shared<T>,
    me: usize,
    f: &(impl Fn(T) -> R + Sync),
) -> Vec<(usize, R)> {
    let mut out = Vec::new();
    loop {
        if let Some((i, job)) = shared.try_claim(me) {
            out.push((i, f(job)));
            continue;
        }
        let mut inj = shared.injector.lock().unwrap();
        if let Some((i, job)) = inj.jobs.pop_front() {
            drop(inj);
            out.push((i, f(job)));
        } else if inj.closed {
            // Deques are only filled before spawn (fixed batches) or
            // never (streamed batches), so an all-empty scan after close
            // is conclusive; jobs already claimed elsewhere sit on their
            // claimer's local result list and need no tracking.
            drop(inj);
            if shared.queues.iter().all(|q| q.lock().unwrap().is_empty()) {
                return out;
            }
        } else {
            // Open but dry: park until the feeder pushes or closes. The
            // timeout guards against a wakeup racing the steal scan
            // above; correctness needs only eventual recheck.
            let _unused = shared.cv.wait_timeout(inj, Duration::from_millis(2));
        }
    }
}

/// Stack of each pool worker: the main thread's usual 8 MiB, so a job
/// needs no more stack on a worker than inline — linting a schema at
/// the parser's nesting cap ([`crate::lang::parser::MAX_NESTING`]) takes
/// more than the 2 MiB a spawned thread gets by default.
const WORKER_STACK: usize = 8 << 20;

/// Runs `preloaded` deques plus the `feed` stream through `n` workers,
/// returning results sorted back into input-index order.
fn run_pool<T, R, F, I>(mut preloaded: Vec<VecDeque<(usize, T)>>, feed: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    I: Iterator<Item = (usize, T)>,
{
    let n = preloaded.len();
    if n <= 1 {
        // Single worker: no pool, no threads — the deterministic
        // baseline the determinism test compares the pool against.
        let mut out: Vec<(usize, R)> = preloaded
            .pop()
            .into_iter()
            .flatten()
            .chain(feed)
            .map(|(i, t)| (i, f(t)))
            .collect();
        out.sort_by_key(|&(i, _)| i);
        return out.into_iter().map(|(_, r)| r).collect();
    }
    let shared = Shared {
        queues: preloaded.into_iter().map(Mutex::new).collect(),
        injector: Mutex::new(Injector {
            jobs: VecDeque::new(),
            closed: false,
        }),
        cv: Condvar::new(),
    };
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|me| {
                let shared = &shared;
                let f = &f;
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(scope, move || worker_loop(shared, me, f))
                    .expect("the pool spawns its workers")
            })
            .collect();
        for job in feed {
            let mut inj = shared.injector.lock().unwrap();
            inj.jobs.push_back(job);
            drop(inj);
            shared.cv.notify_one();
        }
        shared.injector.lock().unwrap().closed = true;
        shared.cv.notify_all();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("validation workers do not panic"))
            .collect()
    });
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Distributes indexed jobs round-robin over `n` deques.
fn seed_queues<T>(jobs: impl Iterator<Item = T>, n: usize) -> Vec<VecDeque<(usize, T)>> {
    let mut queues: Vec<VecDeque<(usize, T)>> = (0..n).map(|_| VecDeque::new()).collect();
    for (i, job) in jobs.enumerate() {
        queues[i % n].push_back((i, job));
    }
    queues
}

impl CompiledBxsd<'_> {
    /// Validates many in-memory documents on a work-stealing pool with
    /// one worker per available core, preserving input order. The
    /// compiled schema is shared read-only across workers.
    pub fn validate_batch(&self, docs: &[Document], opts: ValidateOptions) -> Vec<BxsdReport> {
        self.validate_batch_with_jobs(docs, opts, default_jobs())
    }

    /// [`Self::validate_batch`] with an explicit worker count. `jobs` is
    /// clamped to the number of documents; `jobs <= 1` validates inline
    /// on the calling thread. Reports are identical for every `jobs`
    /// value — input order in, input order out.
    pub fn validate_batch_with_jobs(
        &self,
        docs: &[Document],
        opts: ValidateOptions,
        jobs: usize,
    ) -> Vec<BxsdReport> {
        let n = clamp_jobs(jobs).min(docs.len()).max(1);
        run_pool(
            seed_queues(docs.iter(), n),
            std::iter::empty(),
            |doc: &Document| self.validate_with(doc, opts),
        )
    }

    /// Validates many XML *files*, each in one streaming pass (O(depth)
    /// memory per worker, never building trees). Paths are streamed into
    /// the pool's injector, so parsing begins while the job list is
    /// still being fed. Reports come back in input order; a file that
    /// cannot be read or parsed yields `Err` in its [`FileReport`]
    /// without disturbing the rest of the batch.
    pub fn validate_paths<P: AsRef<Path>>(
        &self,
        paths: &[P],
        opts: ValidateOptions,
        jobs: usize,
    ) -> Vec<FileReport> {
        let n = clamp_jobs(jobs).min(paths.len()).max(1);
        let queues: Vec<VecDeque<(usize, &Path)>> = (0..n).map(|_| VecDeque::new()).collect();
        run_pool(
            queues,
            paths.iter().map(AsRef::as_ref).enumerate(),
            |path: &Path| {
                let shown = path.display().to_string();
                let report = match std::fs::File::open(path) {
                    Err(e) => Err(format!("cannot read {shown}: {e}")),
                    Ok(file) => {
                        let mut reader = xmltree::XmlReader::from_reader(file);
                        self.validate_stream_with(&mut reader, opts)
                            .map_err(|e| e.to_string())
                    }
                };
                FileReport {
                    path: shown,
                    report,
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::lower::lower;
    use crate::lang::parser::parse_schema;

    fn compiled_schema() -> crate::bxsd::Bxsd {
        let ast = parse_schema(
            "global { doc } grammar { doc = { (element item | element note)* } \
             item = mixed { } note = mixed { } }",
        )
        .expect("schema parses");
        lower(&ast).expect("schema lowers").bxsd
    }

    fn docs(n: usize) -> Vec<Document> {
        (0..n)
            .map(|i| {
                let body = if i % 3 == 0 {
                    "<doc><bogus/></doc>".to_owned()
                } else {
                    format!("<doc>{}</doc>", "<item>x</item>".repeat(i % 7 + 1))
                };
                xmltree::parse_document(&body).expect("doc parses")
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_worker_count() {
        let bxsd = compiled_schema();
        let compiled = CompiledBxsd::new(&bxsd);
        let docs = docs(23);
        let opts = ValidateOptions::default();
        let sequential: Vec<_> = docs
            .iter()
            .map(|d| compiled.validate_with(d, opts))
            .collect();
        for jobs in [1, 2, 3, 8, 64] {
            let batch = compiled.validate_batch_with_jobs(&docs, opts, jobs);
            assert_eq!(batch.len(), sequential.len());
            for (b, s) in batch.iter().zip(&sequential) {
                assert_eq!(b.violations, s.violations, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let bxsd = compiled_schema();
        let compiled = CompiledBxsd::new(&bxsd);
        assert!(compiled
            .validate_batch(&[], ValidateOptions::default())
            .is_empty());
        let none: [&str; 0] = [];
        assert!(compiled
            .validate_paths(&none, ValidateOptions::default(), 4)
            .is_empty());
    }

    #[test]
    fn missing_file_reports_error_in_place() {
        let bxsd = compiled_schema();
        let compiled = CompiledBxsd::new(&bxsd);
        let dir = std::env::temp_dir().join("bonxai-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.xml");
        std::fs::write(&good, "<doc><item>x</item></doc>").unwrap();
        let bad = dir.join("does-not-exist.xml");
        let paths = vec![good.clone(), bad, good];
        let reports = compiled.validate_paths(&paths, ValidateOptions::default(), 2);
        assert_eq!(reports.len(), 3);
        assert!(reports[0].is_valid());
        assert!(reports[1].report.is_err());
        assert!(reports[2].is_valid());
    }
}
