//! The rank runner: every rank is a task of one deterministic
//! virtual-clock scheduler, dispatched one at a time on the thread that
//! called [`crate::world::World::run`].
//!
//! ## Determinism by total order
//!
//! Exactly one task runs at a time, always the runnable task with the
//! lowest `(virtual_time, rank)` key:
//!
//! * a task runs until it blocks on a communication wait (recv, ack wait,
//!   lease window, get retry) and *parks*, reporting its virtual clock;
//! * a send marks the destination runnable with key
//!   `max(dest_clock, arrival)` — the earliest virtual instant the
//!   receiver can observe the message;
//! * the dispatch loop (`run`) resumes the lowest-keyed runnable task.
//!
//! Because the execution order is a pure function of virtual timestamps,
//! the same seed and scenario produce the same schedule — and therefore
//! byte-identical traces and `NetStats` — run to run and on either switch
//! back end below.  Tasks buy one call stack per rank and scale (1024
//! ranks in one process), not parallelism; parallelism would require
//! relaxing the total order and is explicitly traded away for
//! reproducibility.
//!
//! ## Silence is quiescence
//!
//! Virtual time only moves when messages do, so "the peer never sends"
//! cannot be detected by a timer.  It does not need one: when no task is
//! runnable the world is **quiescent** — no message is in flight, so no
//! wait can ever be satisfied.  The scheduler then wakes,
//! deterministically (lowest `(clock, rank)` first):
//!
//! 1. if every task finished its program: all service-mode tasks, with
//!    `WakeCause::Shutdown` — the run is complete;
//! 2. else the program waiter with the earliest finite expiry, with
//!    `WakeCause::Silence` — it counts a lease miss / get retry / recv
//!    timeout, or (armed world deadline) surfaces `DeadlineExceeded`;
//! 3. else every waiter with `Shutdown`: the world is deadlocked, and a
//!    deterministic teardown error beats a hang.
//!
//! ## Park/resume protocol
//!
//! A parking task writes its request into its `TaskCell` and switches
//! back to the dispatch loop, which publishes the new state under the
//! scheduler lock.  Wake causes flow the other way: the loop writes
//! `TaskCell::wake` before switching in, and `CoopHandle::park` returns
//! it to the endpoint.
//!
//! ## Two switch back ends
//!
//! The only platform-specific code is the pair `switch_to_task` /
//! `switch_to_host`, selected by `cfg(target_arch)`:
//!
//! * **x86_64** — a stackful coroutine: ~30 instructions of SysV assembly
//!   (callee-saved registers + stack pointer).  Task stacks are allocated
//!   raw (`std::alloc`) and never pre-touched, so an idle rank costs a few
//!   resident pages regardless of [`COOP_STACK_BYTES`]; 1024 ranks fit
//!   comfortably in the documented budget (see `DESIGN.md` §4j).  A canary
//!   word at the base of each stack is checked on every switch-out; an
//!   overwrite aborts the process, since a silently corrupted frame is not
//!   recoverable.
//! * **everything else** — a *baton*: the task body runs on an OS thread
//!   of its own ([`COOP_STACK_BYTES`] of stack) and a `Mutex<bool>` +
//!   `Condvar` lets exactly one of {dispatch loop, task} run.  The
//!   schedule is the same total order, so every observable is identical;
//!   only the cost of a switch differs.  It is also compiled into x86_64
//!   *test* builds, where the unit tests run both back ends against each
//!   other.

use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

/// Stack size of one task, on either switch back end.  Virtual memory
/// only: untouched pages are never resident.
pub const COOP_STACK_BYTES: usize = 1 << 20;

/// Why a parked task was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeCause {
    /// At least one message arrived for this rank since it parked.
    Message,
    /// Global quiescence: nothing can ever arrive unless this task acts.
    Silence,
    /// The world is tearing down (run complete, or deterministic
    /// deadlock teardown).
    Shutdown,
}

/// What a task is waiting for when it parks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ParkKind {
    /// Blocked in a communication wait.  `expiry` is the virtual time at
    /// which the wait would give up on its own (a recv timeout deadline,
    /// a world deadline, or the current clock for settle-now polls).  At
    /// global quiescence the waiter with the *earliest finite* expiry is
    /// woken with [`WakeCause::Silence`]; `f64::INFINITY` waits only wake
    /// on a message (or teardown).
    Wait { expiry: f64 },
    /// The rank's program returned; it keeps answering protocol traffic
    /// until the whole world completes.
    Service,
}

/// Lifetime-erased task body.  Safety: [`run`] drives every task to
/// completion (and joins every baton thread) before `World::execute`
/// returns, so the borrows captured inside never outlive their owners.
pub(crate) type TaskBody = Box<dyn FnOnce(*mut TaskCell) + Send>;

/// Per-task control block shared between the dispatch loop and the code
/// running *inside* the task (via [`CoopHandle`]).
///
/// Access discipline: a cell is only ever touched by whichever of
/// {dispatch loop, task} currently runs.  On the baton back end those are
/// two OS threads; the baton mutex orders every handoff.
pub(crate) struct TaskCell {
    switch: Switch,
    /// Set once the task body has returned.
    finished: bool,
    /// Park request, written by the task just before switching out.
    park: ParkKind,
    /// The task's virtual clock at park time (the scheduler's key input).
    clock: f64,
    /// Wake cause, written by the dispatch loop just before switching in.
    wake: WakeCause,
    /// A panic that escaped the task body's own catch (a harness bug);
    /// re-raised on the host thread so it is not silently lost.
    escaped: Option<Box<dyn std::any::Any + Send>>,
    body: Option<TaskBody>,
}

impl TaskCell {
    fn new(body: TaskBody) -> Box<TaskCell> {
        // Allocate first: the switch back end captures the cell's address.
        let mut cell = Box::<TaskCell>::new_uninit();
        let switch = Switch::new(cell.as_mut_ptr());
        cell.write(TaskCell {
            switch,
            finished: false,
            park: ParkKind::Service,
            clock: 0.0,
            wake: WakeCause::Message,
            escaped: None,
            body: Some(body),
        });
        // SAFETY: initialized by the write above.
        unsafe { cell.assume_init() }
    }
}

/// Run a task's body to completion on the task's own stack or thread.
/// The body contains its own `catch_unwind` (the supervisor loop); this
/// backstop exists because unwinding must never leave the task — into the
/// assembly frame below a coroutine, or out of a baton thread.
///
/// # Safety
/// `cell` must point to a live `TaskCell` whose turn it is to run.
unsafe fn run_body(cell: *mut TaskCell) {
    let body = (*cell).body.take().expect("task body runs once");
    if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(cell))) {
        (*cell).escaped = Some(e);
    }
    (*cell).finished = true;
}

// ---------------------------------------------------------------------------
// The context-switch pair — the only platform-specific code.
// ---------------------------------------------------------------------------

/// How control passes between the dispatch loop and one task.
enum Switch {
    #[cfg(target_arch = "x86_64")]
    Coro(coro::Coro),
    #[cfg(any(test, not(target_arch = "x86_64")))]
    Baton(baton::BatonTask),
}

impl Switch {
    /// The target's back end, set up to start `run_body(cell)` on the first
    /// switch-in.  `cell` need not be initialized yet.
    fn new(cell: *mut TaskCell) -> Switch {
        #[cfg(all(test, target_arch = "x86_64"))]
        if FORCE_BATON.get() {
            return Switch::Baton(baton::BatonTask::spawn(cell));
        }
        #[cfg(target_arch = "x86_64")]
        return Switch::Coro(coro::Coro::new(cell));
        #[cfg(not(target_arch = "x86_64"))]
        return Switch::Baton(baton::BatonTask::spawn(cell));
    }
}

/// Switch from the dispatch loop into a (fresh or parked) task; returns
/// when the task parks or finishes.
///
/// # Safety
/// `cell` must point to a live, unfinished `TaskCell`, and the caller must
/// be the dispatch loop.
unsafe fn switch_to_task(cell: *mut TaskCell) {
    match &(*cell).switch {
        #[cfg(target_arch = "x86_64")]
        Switch::Coro(c) => c.to_task(),
        #[cfg(any(test, not(target_arch = "x86_64")))]
        Switch::Baton(b) => b.hand_to(true),
    }
}

/// Switch from inside a task back to the dispatch loop; returns when the
/// loop resumes this task.
///
/// # Safety
/// Must only be called from inside the task `cell` belongs to.
unsafe fn switch_to_host(cell: *mut TaskCell) {
    match &(*cell).switch {
        #[cfg(target_arch = "x86_64")]
        Switch::Coro(c) => c.to_host(),
        #[cfg(any(test, not(target_arch = "x86_64")))]
        Switch::Baton(b) => b.hand_to(false),
    }
}

/// x86_64 back end: a stackful coroutine switched by SysV assembly.
#[cfg(target_arch = "x86_64")]
mod coro {
    use super::{run_body, TaskCell, COOP_STACK_BYTES};
    use std::cell::UnsafeCell;

    core::arch::global_asm!(
        r#"
    .text
    .globl mcsim_ctx_switch
    .p2align 4
mcsim_ctx_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    mov [rdi], rsp
    mov rsp, rsi
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret

    .globl mcsim_coro_thunk
    .p2align 4
mcsim_coro_thunk:
    mov rdi, r12
    xor ebp, ebp
    sub rsp, 8
    call mcsim_coro_entry
    ud2
"#
    );

    extern "sysv64" {
        /// Save the current continuation's stack pointer into `*save`, then
        /// restore `target` as the stack pointer and return into it.  The
        /// saved continuation resumes right after this call when someone
        /// switches back.
        fn mcsim_ctx_switch(save: *mut usize, target: usize);
    }

    extern "C" {
        /// Initial `ret` target of a fresh task stack (defined in the
        /// `global_asm!` block above): moves the cell pointer from `r12`
        /// into the first argument register and calls [`mcsim_coro_entry`].
        fn mcsim_coro_thunk();
    }

    /// Sentinel written at the base (lowest address) of every task stack.
    const STACK_CANARY: u64 = 0x6d63_7369_6d5f_6f6b; // "mcsim_ok"

    struct StackMem {
        ptr: *mut u8,
        layout: std::alloc::Layout,
    }

    impl StackMem {
        fn new() -> StackMem {
            let layout =
                std::alloc::Layout::from_size_align(COOP_STACK_BYTES, 16).expect("stack layout");
            // Deliberately uninitialized: pages must stay untouched (and
            // therefore non-resident) until the task actually grows into
            // them.
            // SAFETY: `layout` has a non-zero size.
            let ptr = unsafe { std::alloc::alloc(layout) };
            assert!(!ptr.is_null(), "task stack allocation failed");
            StackMem { ptr, layout }
        }

        fn top(&self) -> usize {
            self.ptr as usize + self.layout.size()
        }
    }

    impl Drop for StackMem {
        fn drop(&mut self) {
            // SAFETY: `ptr` came from `alloc(layout)` in `new`.
            unsafe { std::alloc::dealloc(self.ptr, self.layout) };
        }
    }

    /// The two saved stack pointers of one task.  `UnsafeCell`: the
    /// suspended side's frame still holds a `&Coro` while the running side
    /// writes through its own.
    pub(super) struct Coro {
        /// Saved stack pointer of the suspended task.
        ctx: UnsafeCell<usize>,
        /// Saved stack pointer of the dispatch loop during a slice.
        host: UnsafeCell<usize>,
        stack: StackMem,
    }

    impl Coro {
        /// Allocate a stack and lay out its initial frame so the first
        /// switch-in pops zeroed callee-saved registers (with `r12` =
        /// cell pointer) and `ret`s into `mcsim_coro_thunk`, which calls
        /// [`mcsim_coro_entry`] with SysV stack alignment.
        pub(super) fn new(cell: *mut TaskCell) -> Coro {
            let stack = StackMem::new();
            let top = stack.top();
            debug_assert_eq!(top % 16, 0);
            let slot = |i: usize| (top - 8 * i) as *mut u64;
            // SAFETY: the canary slot and the eight frame slots lie inside
            // the fresh allocation `[ptr, top)`, which nothing else uses.
            unsafe {
                (stack.ptr as *mut u64).write(STACK_CANARY);
                slot(1).write(0); // never-returned-to slot (keeps alignment)
                slot(2).write(mcsim_coro_thunk as *const () as usize as u64); // ret target
                slot(3).write(0); // rbp
                slot(4).write(0); // rbx
                slot(5).write(cell as u64); // r12 -> rdi in thunk
                slot(6).write(0); // r13
                slot(7).write(0); // r14
                slot(8).write(0); // r15
            }
            Coro {
                ctx: UnsafeCell::new(top - 64),
                host: UnsafeCell::new(0),
                stack,
            }
        }

        /// # Safety
        /// Caller is the dispatch loop and the task has not finished.
        pub(super) unsafe fn to_task(&self) {
            mcsim_ctx_switch(self.host.get(), *self.ctx.get());
            if (self.stack.ptr as *const u64).read() != STACK_CANARY {
                // The guard word at the stack base was overwritten: frames
                // below it are already corrupt, so unwinding is unsafe.
                eprintln!(
                    "mcsim: task stack overflow (rank closure needs more than \
                     COOP_STACK_BYTES); aborting"
                );
                std::process::abort();
            }
        }

        /// # Safety
        /// Caller runs on this coroutine's own stack.
        pub(super) unsafe fn to_host(&self) {
            mcsim_ctx_switch(self.ctx.get(), *self.host.get());
        }
    }

    /// Entry point every fresh task stack starts in (called from the asm
    /// thunk).  Never returns: on completion it switches back to the
    /// dispatch loop forever.
    #[no_mangle]
    unsafe extern "sysv64" fn mcsim_coro_entry(cell: *mut TaskCell) -> ! {
        run_body(cell);
        loop {
            super::switch_to_host(cell);
        }
    }
}

/// Portable back end: the task body runs on an OS thread of its own and a
/// baton lets exactly one of {dispatch loop, task} run.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod baton {
    use super::{run_body, TaskCell, COOP_STACK_BYTES};
    use std::sync::{Arc, Condvar, Mutex};

    /// Whose turn it is.  The mutex is also what makes every write to the
    /// `TaskCell` by one side visible to the other.
    struct Baton {
        task_turn: Mutex<bool>,
        cv: Condvar,
    }

    impl Baton {
        fn pass(&self, to_task: bool) {
            *self.task_turn.lock().expect("baton holder panicked") = to_task;
            self.cv.notify_one();
        }

        fn wait(&self, for_task: bool) {
            let mut turn = self.task_turn.lock().expect("baton holder panicked");
            while *turn != for_task {
                turn = self.cv.wait(turn).expect("baton holder panicked");
            }
        }
    }

    pub(super) struct BatonTask {
        baton: Arc<Baton>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    struct CellPtr(*mut TaskCell);
    // SAFETY: the pointer is only dereferenced while its thread holds the
    // baton, and `run` joins the thread before the cell is freed.
    unsafe impl Send for CellPtr {}

    impl BatonTask {
        /// Start the task's thread; it waits for its first turn.
        pub(super) fn spawn(cell: *mut TaskCell) -> BatonTask {
            let baton = Arc::new(Baton {
                task_turn: Mutex::new(false),
                cv: Condvar::new(),
            });
            let theirs = baton.clone();
            let cell = CellPtr(cell);
            let thread = std::thread::Builder::new()
                .stack_size(COOP_STACK_BYTES)
                .spawn(move || {
                    let cell = cell;
                    theirs.wait(true);
                    // SAFETY: it is this task's turn, and the cell outlives
                    // the thread (joined in `run`).
                    unsafe { run_body(cell.0) };
                    theirs.pass(false);
                })
                .expect("spawn task thread");
            BatonTask {
                baton,
                thread: Some(thread),
            }
        }

        /// Hand the turn to the task (`true`) or the dispatch loop
        /// (`false`) and block until it comes back.
        pub(super) fn hand_to(&self, task: bool) {
            self.baton.pass(task);
            self.baton.wait(!task);
        }

        /// Join the finished task's thread.
        pub(super) fn join(&mut self) {
            if let Some(t) = self.thread.take() {
                t.join().expect("task thread catches its own panics");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------------

/// Heap entry ordering: min (key, rank) first.  `key` is finite by
/// construction (virtual clocks and arrivals are finite).
#[derive(PartialEq)]
struct HeapEntry {
    key: f64,
    rank: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum first.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Whether a task is still executing its program or only answering
/// protocol traffic until the rest of the world finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Program,
    Service,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Queued in the heap under `Slot::key`.
    Runnable,
    /// Currently executing (at most one world-wide).
    Running,
    /// Parked in a communication wait.
    Waiting,
    /// Task body returned.
    Done,
}

struct Slot {
    mode: Mode,
    state: State,
    /// Valid when `Waiting`: virtual expiry of the wait.  Finite values
    /// compete for the Silence wake at quiescence; infinity means the
    /// wait only ends on a message or teardown.
    expiry: f64,
    /// Virtual clock the task last reported when parking.
    clock: f64,
    /// Scheduling key while `Runnable` (stale heap entries carry an old
    /// key and are discarded on pop).
    key: f64,
    /// At least one message arrived since the task last started running.
    mail: bool,
    /// Minimum arrival time among those messages.
    mail_min: f64,
    /// Cause to deliver at the next dispatch.
    wake: WakeCause,
}

struct Inner {
    slots: Vec<Slot>,
    heap: BinaryHeap<HeapEntry>,
    /// Tasks still in `Mode::Program`.
    unfinished: usize,
    /// Tasks not yet `Done`.
    live: usize,
}

/// Shared scheduler state: one per world run.  Dispatch is strictly
/// serialized, so the mutex is never contended; it stays because on the
/// baton back end `notify` runs on the tasks' own threads and needs its
/// happens-before.
pub(crate) struct Sched {
    inner: Mutex<Inner>,
}

impl Sched {
    pub(crate) fn new(size: usize) -> Sched {
        let slots = (0..size)
            .map(|_| Slot {
                mode: Mode::Program,
                state: State::Runnable,
                expiry: f64::INFINITY,
                clock: 0.0,
                key: 0.0,
                mail: false,
                mail_min: f64::INFINITY,
                wake: WakeCause::Message,
            })
            .collect();
        let heap = (0..size).map(|rank| HeapEntry { key: 0.0, rank }).collect();
        Sched {
            inner: Mutex::new(Inner {
                slots,
                heap,
                unfinished: size,
                live: size,
            }),
        }
    }

    /// A message (data, protocol frame, or poison) was enqueued for
    /// `to` with the given modeled arrival time.  Called from the
    /// sender's slice; makes the destination runnable if it was parked.
    pub(crate) fn notify(&self, to: usize, arrival: f64) {
        let mut g = self.inner.lock().unwrap();
        let s = &mut g.slots[to];
        s.mail = true;
        if arrival < s.mail_min {
            s.mail_min = arrival;
        }
        match s.state {
            State::Waiting => {
                s.state = State::Runnable;
                s.wake = WakeCause::Message;
                s.key = s.clock.max(s.mail_min);
                let key = s.key;
                g.heap.push(HeapEntry { key, rank: to });
            }
            State::Runnable => {
                // Decrease-key: push a better duplicate, the stale entry
                // is discarded on pop.
                let nk = s.clock.max(s.mail_min);
                if nk < s.key {
                    s.key = nk;
                    g.heap.push(HeapEntry { key: nk, rank: to });
                }
            }
            // Running: its own drain will pick the message up (mail is
            // latched for the park decision).  Done: every program has
            // finished; the message can no longer matter.
            State::Running | State::Done => {}
        }
    }

    /// The lowest-keyed runnable task and the wake cause to hand it, or
    /// `None` once every task is done.
    fn next_dispatch(&self) -> Option<(usize, WakeCause)> {
        let mut g = self.inner.lock().unwrap();
        while g.live > 0 {
            while let Some(e) = g.heap.pop() {
                let s = &mut g.slots[e.rank];
                if s.state != State::Runnable || e.key != s.key {
                    continue; // stale duplicate
                }
                s.state = State::Running;
                s.mail = false;
                s.mail_min = f64::INFINITY;
                return Some((e.rank, s.wake));
            }
            // Quiescent: manufacture the deterministic wake-up.
            Self::quiesce(&mut g);
        }
        None
    }

    /// Handle global quiescence: nothing runnable, but live tasks remain.
    /// Always enqueues at least one wake.
    fn quiesce(g: &mut Inner) {
        if g.unfinished == 0 {
            // Every program returned; release the service loops.
            for rank in 0..g.slots.len() {
                let s = &mut g.slots[rank];
                if s.state == State::Waiting {
                    s.state = State::Runnable;
                    s.wake = WakeCause::Shutdown;
                    s.key = s.clock;
                    let key = s.key;
                    g.heap.push(HeapEntry { key, rank });
                }
            }
            return;
        }
        // One silence-capable program waiter: earliest virtual expiry
        // wins (rank breaks ties), so a short recv timeout fires before a
        // distant world deadline.
        let pick = g
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.mode == Mode::Program && s.state == State::Waiting && s.expiry.is_finite()
            })
            .min_by(|(ar, a), (br, b)| a.expiry.total_cmp(&b.expiry).then(ar.cmp(br)))
            .map(|(r, _)| r);
        if let Some(rank) = pick {
            let s = &mut g.slots[rank];
            s.state = State::Runnable;
            s.wake = WakeCause::Silence;
            s.key = s.clock;
            let key = s.key;
            g.heap.push(HeapEntry { key, rank });
            return;
        }
        // True deadlock: no message in flight, nobody silence-capable.
        // Deterministic teardown (SimError::Shutdown at every waiter)
        // instead of a hang.
        if std::env::var_os("MCSIM_SCHED_DEBUG").is_some() {
            for (r, s) in g.slots.iter().enumerate() {
                eprintln!(
                    "mcsim-sched deadlock: rank={r} mode={:?} state={:?} clock={} mail={} expiry={}",
                    s.mode, s.state, s.clock, s.mail, s.expiry
                );
            }
        }
        for rank in 0..g.slots.len() {
            let s = &mut g.slots[rank];
            if s.state == State::Waiting {
                s.state = State::Runnable;
                s.wake = WakeCause::Shutdown;
                s.key = s.clock;
                let key = s.key;
                g.heap.push(HeapEntry { key, rank });
            }
        }
    }

    /// Publish a park (or completion) after the dispatch loop regained
    /// control.
    fn after_slice(&self, rank: usize, cell: &TaskCell) {
        let mut g = self.inner.lock().unwrap();
        if cell.finished {
            let was_program = {
                let s = &mut g.slots[rank];
                s.state = State::Done;
                let was = s.mode == Mode::Program;
                // Defensive: bodies park Service before finishing, but a
                // panic escaping the harness could skip that.
                s.mode = Mode::Service;
                was
            };
            if was_program {
                g.unfinished -= 1;
            }
            g.live -= 1;
        } else {
            let left_program = {
                let s = &mut g.slots[rank];
                s.clock = cell.clock;
                matches!(cell.park, ParkKind::Service) && s.mode == Mode::Program
            };
            if left_program {
                g.slots[rank].mode = Mode::Service;
                g.unfinished -= 1;
            }
            let requeue = {
                let s = &mut g.slots[rank];
                match cell.park {
                    // Mail that raced in during the slice (a self-send or
                    // a protocol echo) wakes the task immediately.
                    ParkKind::Wait { expiry } => {
                        if s.mail {
                            true
                        } else {
                            s.state = State::Waiting;
                            s.expiry = expiry;
                            false
                        }
                    }
                    ParkKind::Service => {
                        if s.mail {
                            true
                        } else {
                            s.state = State::Waiting;
                            s.expiry = f64::INFINITY;
                            false
                        }
                    }
                }
            };
            if requeue {
                let s = &mut g.slots[rank];
                s.state = State::Runnable;
                s.wake = WakeCause::Message;
                s.key = if s.mail {
                    s.clock.max(s.mail_min)
                } else {
                    s.clock
                };
                let key = s.key;
                g.heap.push(HeapEntry { key, rank });
            }
        }
    }
}

/// One cell per rank, indexed by the dispatch loop.
pub(crate) struct CellTable {
    // Boxed on purpose: each cell's switch back end captures the cell's
    // address at construction, so it must survive being collected into
    // (or moved with) the Vec.
    #[allow(clippy::vec_box)]
    cells: Vec<Box<TaskCell>>,
}

impl CellTable {
    pub(crate) fn new(bodies: Vec<TaskBody>) -> CellTable {
        CellTable {
            cells: bodies.into_iter().map(TaskCell::new).collect(),
        }
    }

    pub(crate) fn cell_ptr(&self, rank: usize) -> *mut TaskCell {
        let b: &TaskCell = &self.cells[rank];
        b as *const TaskCell as *mut TaskCell
    }

    /// Panics that escaped task harnesses (bugs), to re-raise.
    pub(crate) fn take_escaped(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
        for c in &mut self.cells {
            if let Some(e) = c.escaped.take() {
                return Some(e);
            }
        }
        None
    }
}

/// The dispatch loop, on the thread that called `World::run`: resume the
/// lowest-keyed runnable task, run its slice, publish its park.  Returns
/// when every task is done (and, on the baton back end, its thread
/// joined).
pub(crate) fn run(sched: &Sched, table: &mut CellTable) {
    while let Some((rank, wake)) = sched.next_dispatch() {
        let cell = table.cell_ptr(rank);
        // SAFETY: `rank` was just moved to `Running`, so its task is
        // unfinished and suspended; nothing else touches the cell until
        // the switch returns.
        unsafe {
            (*cell).wake = wake;
            switch_to_task(cell);
            sched.after_slice(rank, &*cell);
        }
    }
    for cell in &mut table.cells {
        match &mut cell.switch {
            #[cfg(target_arch = "x86_64")]
            Switch::Coro(_) => {}
            #[cfg(any(test, not(target_arch = "x86_64")))]
            Switch::Baton(b) => b.join(),
        }
    }
}

/// Handle the endpoint holds on its own task + the scheduler: park and
/// notify entry points used by the communication layer.
pub(crate) struct CoopHandle {
    cell: *mut TaskCell,
    sched: Arc<Sched>,
}

// SAFETY: the handle travels with its rank's endpoint into that rank's
// task (a thread of its own on the baton back end) and `cell` is only
// dereferenced there, while the task holds the turn; `Sched` is `Sync`.
unsafe impl Send for CoopHandle {}

impl CoopHandle {
    pub(crate) fn new(cell: *mut TaskCell, sched: Arc<Sched>) -> CoopHandle {
        CoopHandle { cell, sched }
    }

    /// Park the current task and return why it was resumed.  Must be
    /// called from inside the task.
    pub(crate) fn park(&self, kind: ParkKind, clock: f64) -> WakeCause {
        // SAFETY: the cell outlives its task, and while the task runs
        // nothing else touches it (see `TaskCell`).
        unsafe {
            (*self.cell).park = kind;
            (*self.cell).clock = clock;
            switch_to_host(self.cell);
            (*self.cell).wake
        }
    }

    /// Mark `to` runnable because a message with `arrival` was enqueued.
    pub(crate) fn notify(&self, to: usize, arrival: f64) {
        self.sched.notify(to, arrival);
    }
}

impl std::fmt::Debug for CoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CoopHandle")
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only override read by `Switch::arm` on x86_64: tasks created
    /// on this thread use the baton back end instead of the coroutine.
    static FORCE_BATON: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with every world it starts (on this thread) hosted on the baton
/// back end — how x86_64 test builds reach the code other targets run.
#[cfg(test)]
pub(crate) fn with_baton<R>(f: impl FnOnce() -> R) -> R {
    FORCE_BATON.set(true);
    let r = f();
    FORCE_BATON.set(false);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `test` once per switch back end this target compiles (off
    /// x86_64 both passes use the baton).
    fn on_each_back_end(test: impl Fn()) {
        test();
        with_baton(test);
    }

    fn run_bodies(sched: &Sched, bodies: Vec<TaskBody>) {
        run(sched, &mut CellTable::new(bodies));
    }

    /// The override really selects the baton — its task bodies run on a
    /// thread of their own — so the parity tests compare two back ends.
    #[test]
    fn with_baton_hosts_tasks_on_their_own_threads() {
        let task_thread = || {
            let seen = Arc::new(Mutex::new(None));
            let seen2 = seen.clone();
            let body: TaskBody = Box::new(move |_cell| {
                *seen2.lock().unwrap() = Some(std::thread::current().id());
            });
            run_bodies(&Sched::new(1), vec![body]);
            let id = seen.lock().unwrap().expect("body ran");
            id
        };
        let host = std::thread::current().id();
        assert_ne!(with_baton(task_thread), host);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(task_thread(), host);
    }

    /// Bare round trip: resume / park / resume-to-completion.
    #[test]
    fn coroutine_switches_and_finishes() {
        on_each_back_end(|| {
            let sched = Arc::new(Sched::new(1));
            let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
            let log2 = log.clone();
            let sched2 = sched.clone();
            let body: TaskBody = Box::new(move |cell| {
                let h = CoopHandle::new(cell, sched2.clone());
                log2.lock().unwrap().push("first");
                let w = h.park(ParkKind::Wait { expiry: 1.0 }, 1.0);
                assert_eq!(w, WakeCause::Silence);
                log2.lock().unwrap().push("second");
            });
            run_bodies(&sched, vec![body]);
            assert_eq!(*log.lock().unwrap(), vec!["first", "second"]);
        });
    }

    /// Two tasks ping-ponging runnability purely through notify: the
    /// scheduler picks the lowest (clock, rank) key every time.
    #[test]
    fn lowest_key_runs_first() {
        on_each_back_end(|| {
            let sched = Arc::new(Sched::new(2));
            let order: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<TaskBody> = Vec::new();
            for rank in 0..2usize {
                let order = order.clone();
                let sched = sched.clone();
                bodies.push(Box::new(move |cell| {
                    let h = CoopHandle::new(cell, sched.clone());
                    for round in 0..3u32 {
                        order.lock().unwrap().push((rank, round));
                        // Wake the peer "now" and wait for it to wake us.
                        h.notify(1 - rank, (round + 1) as f64);
                        if round < 2 {
                            let w = h.park(
                                ParkKind::Wait {
                                    expiry: f64::INFINITY,
                                },
                                (round + 1) as f64,
                            );
                            assert_eq!(w, WakeCause::Message);
                        }
                    }
                    // Completion protocol: park in service mode once.
                    loop {
                        if h.park(ParkKind::Service, 3.0) == WakeCause::Shutdown {
                            break;
                        }
                    }
                }));
            }
            run_bodies(&sched, bodies);
            let got = order.lock().unwrap().clone();
            // Rank 0 starts (tie on key 0 broken by rank), and rounds
            // alternate deterministically.
            assert_eq!(got, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
        });
    }

    /// With no messages in flight and no silence-capable waiter, the
    /// scheduler tears the world down instead of hanging.
    #[test]
    fn deadlock_becomes_shutdown() {
        on_each_back_end(|| {
            let sched = Arc::new(Sched::new(1));
            let sched2 = sched.clone();
            let saw: Arc<Mutex<Option<WakeCause>>> = Arc::new(Mutex::new(None));
            let saw2 = saw.clone();
            let body: TaskBody = Box::new(move |cell| {
                let h = CoopHandle::new(cell, sched2.clone());
                let w = h.park(
                    ParkKind::Wait {
                        expiry: f64::INFINITY,
                    },
                    0.0,
                );
                *saw2.lock().unwrap() = Some(w);
            });
            run_bodies(&sched, vec![body]);
            assert_eq!(*saw.lock().unwrap(), Some(WakeCause::Shutdown));
        });
    }

    /// Silence-capable waits get a Silence wake at quiescence, earliest
    /// expiry first.
    #[test]
    fn silence_wakes_lowest_clock_first() {
        on_each_back_end(|| {
            let sched = Arc::new(Sched::new(2));
            let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<TaskBody> = Vec::new();
            for rank in 0..2usize {
                let order = order.clone();
                let sched = sched.clone();
                bodies.push(Box::new(move |cell| {
                    let h = CoopHandle::new(cell, sched.clone());
                    // Rank 1 parks at a lower clock than rank 0.
                    let clock = if rank == 0 { 5.0 } else { 2.0 };
                    let w = h.park(ParkKind::Wait { expiry: clock }, clock);
                    assert_eq!(w, WakeCause::Silence);
                    order.lock().unwrap().push(rank);
                }));
            }
            run_bodies(&sched, bodies);
            assert_eq!(*order.lock().unwrap(), vec![1, 0]);
        });
    }

    /// The deepest stack user: make sure slices survive real frames.
    #[test]
    fn coroutine_survives_deep_call_chain() {
        fn burn(n: usize, acc: u64) -> u64 {
            // Enough locals to consume real stack without overflowing.
            let pad = [acc; 8];
            if n == 0 {
                pad.iter().sum()
            } else {
                burn(n - 1, acc + 1) + pad[0]
            }
        }
        on_each_back_end(|| {
            let sched = Arc::new(Sched::new(1));
            let out: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
            let out2 = out.clone();
            let body: TaskBody = Box::new(move |_cell| {
                *out2.lock().unwrap() = burn(2000, 0);
            });
            run_bodies(&sched, vec![body]);
            assert!(*out.lock().unwrap() > 0);
        });
    }
}
