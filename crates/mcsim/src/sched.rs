//! M:N cooperative rank scheduler: green tasks on a virtual clock.
//!
//! The historical runner spawns one OS thread per rank, which tops out at
//! a few hundred ranks (stack + scheduler pressure) and makes every
//! real-time wait (lease windows, silence caps) a source of
//! wall-clock-dependent behavior.  This module replaces threads with
//! **stackful coroutines**: each rank is a green task with its own call
//! stack, multiplexed over a small pool of worker threads.
//!
//! ## Determinism by total order
//!
//! The scheduler runs **exactly one task at a time**, always the runnable
//! task with the lowest `(virtual_time, rank)` key:
//!
//! * a task runs until it blocks on a communication wait (recv, ack wait,
//!   lease window, get retry) and *parks*, reporting its virtual clock;
//! * a send marks the destination runnable with key
//!   `max(dest_clock, arrival)` — the earliest virtual instant the
//!   receiver can observe the message;
//! * the worker pool resumes the lowest-keyed runnable task.
//!
//! Because the execution order is a pure function of virtual timestamps,
//! the same seed and scenario produce the same schedule — and therefore
//! byte-identical traces and `NetStats` — for *any* worker-pool size,
//! which is exactly what the parity tests assert.  Workers buy stack
//! multiplexing and scale (1024 ranks in one process), not parallelism;
//! parallelism would require relaxing the total order and is explicitly
//! traded away for reproducibility.
//!
//! ## Silence without wall clocks
//!
//! The threaded runner bounded "peer never sends" waits with real-time
//! caps (250 ms recv-timeout silence, 50 ms lease windows, 400 ms
//! deadline caps).  Cooperatively, silence is *observable*: when no task
//! is runnable and none is running, the world is **quiescent** — no
//! message is in flight, so no wait can ever be satisfied.  The scheduler
//! then wakes, deterministically (lowest `(clock, rank)` first):
//!
//! 1. if every task finished its program: all service-mode tasks, with
//!    `WakeCause::Shutdown` — the run is complete;
//! 2. else one silence-capable waiter with `WakeCause::Silence` — it
//!    counts a lease miss / get retry / recv timeout exactly where the
//!    threaded runner counted a real-time window;
//! 3. else (armed deadline) one blocked waiter with `Silence`, surfacing
//!    `DeadlineExceeded`;
//! 4. else every waiter with `Shutdown`: the world is deadlocked, and a
//!    deterministic teardown error beats a hang.
//!
//! ## Park/resume protocol
//!
//! A parking task writes its request into its `TaskCell` and switches
//! back to the hosting worker; the *worker* publishes the new state under
//! the scheduler lock only after the context is fully saved, so another
//! worker can never resume a half-parked continuation.  Wake causes flow
//! the other way: the worker writes `TaskCell::wake` before switching
//! in, and `CoopHandle::park` returns it to the endpoint.
//!
//! ## Stacks
//!
//! Task stacks are allocated raw (`std::alloc`) and never pre-touched, so
//! an idle rank costs a few resident pages regardless of
//! [`COOP_STACK_BYTES`]; 1024 ranks fit comfortably in the documented
//! budget (see `DESIGN.md` §4j).  A canary word at the base of each stack
//! is checked on every switch-out; an overwrite aborts the process,
//! since a silently corrupted frame is not recoverable.
//!
//! The context switch itself is ~30 instructions of inline assembly
//! (x86_64 SysV: callee-saved registers + stack pointer).  On other
//! architectures the world falls back to the thread-per-rank runner.

use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};

/// Default stack size for one cooperative task.  Virtual memory only:
/// untouched pages are never resident.  Override per world with
/// [`crate::world::World::with_stack_bytes`].
pub const COOP_STACK_BYTES: usize = 1 << 20;

/// Why a parked task was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeCause {
    /// At least one message arrived for this rank since it parked.
    Message,
    /// Global quiescence: nothing can ever arrive unless this task acts.
    /// Stands in for the threaded runner's real-time silence windows.
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
    /// Cooperative yield: stay runnable at the current clock so
    /// lower-keyed ranks can run (used by non-blocking probe loops).
    Yield,
}

// ---------------------------------------------------------------------------
// Context switch (x86_64 SysV).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
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

#[cfg(target_arch = "x86_64")]
extern "sysv64" {
    /// Save the current continuation's stack pointer into `*save`, then
    /// restore `target` as the stack pointer and return into it.  The
    /// saved continuation resumes right after this call when someone
    /// switches back.
    fn mcsim_ctx_switch(save: *mut usize, target: usize);
}

#[cfg(target_arch = "x86_64")]
extern "C" {
    /// Initial `ret` target of a fresh task stack (defined in the
    /// `global_asm!` block above): moves the cell pointer from `r12`
    /// into the first argument register and calls [`mcsim_coro_entry`].
    fn mcsim_coro_thunk();
}

/// True when the cooperative runner is available on this target.
pub(crate) const fn coop_supported() -> bool {
    cfg!(target_arch = "x86_64")
}

/// Sentinel written at the base (lowest address) of every task stack.
const STACK_CANARY: u64 = 0x6d63_7369_6d5f_6f6b; // "mcsim_ok"

struct StackMem {
    ptr: *mut u8,
    layout: std::alloc::Layout,
}

impl StackMem {
    fn new(bytes: usize) -> StackMem {
        let size = bytes.max(64 * 1024) & !15;
        let layout = std::alloc::Layout::from_size_align(size, 16).expect("stack layout");
        // Deliberately uninitialized: pages must stay untouched (and
        // therefore non-resident) until the task actually grows into
        // them.
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
        unsafe { std::alloc::dealloc(self.ptr, self.layout) };
    }
}

/// Lifetime-erased task body.  Safety: the world drives every task to
/// completion (or never starts it) before `execute_coop` returns, so the
/// borrows captured inside never outlive their owners.
pub(crate) type TaskBody = Box<dyn FnOnce(*mut TaskCell) + Send>;

/// Per-task control block shared between the hosting worker and the code
/// running *inside* the task (via [`CoopHandle`]).
///
/// Concurrency discipline: fields are only ever touched by (a) the worker
/// currently resuming this task, or (b) the task itself while running on
/// that worker.  Handoff between workers is ordered by the scheduler
/// mutex, which provides the necessary happens-before edges.
pub(crate) struct TaskCell {
    /// Saved stack pointer of the suspended task.
    ctx: usize,
    /// Saved stack pointer of the worker hosting the current slice.
    host: usize,
    /// Set once the task body has returned and the stack is dead.
    finished: bool,
    /// Park request, written by the task just before switching out.
    park: ParkKind,
    /// The task's virtual clock at park time (the scheduler's key input).
    clock: f64,
    /// Wake cause, written by the worker just before switching in.
    wake: WakeCause,
    /// A panic that escaped the task body's own catch (a harness bug);
    /// re-raised on the main thread so it is not silently lost.
    escaped: Option<Box<dyn std::any::Any + Send>>,
    body: Option<TaskBody>,
    stack: StackMem,
}

unsafe impl Send for TaskCell {}

impl TaskCell {
    fn new(stack_bytes: usize, body: TaskBody) -> Box<TaskCell> {
        let stack = StackMem::new(stack_bytes);
        let mut cell = Box::new(TaskCell {
            ctx: 0,
            host: 0,
            finished: false,
            park: ParkKind::Yield,
            clock: 0.0,
            wake: WakeCause::Message,
            escaped: None,
            body: Some(body),
            stack,
        });
        unsafe {
            // Plant the canary at the base (lowest address) of the stack.
            (cell.stack.ptr as *mut u64).write(STACK_CANARY);
            cell.init_stack();
        }
        cell
    }

    /// Lay out the initial frame so the first switch-in pops zeroed
    /// callee-saved registers (with `r12` = cell pointer) and `ret`s into
    /// `mcsim_coro_thunk`, which calls [`mcsim_coro_entry`] with SysV
    /// stack alignment.
    #[cfg(target_arch = "x86_64")]
    unsafe fn init_stack(&mut self) {
        let top = self.stack.top();
        debug_assert_eq!(top % 16, 0);
        let slot = |i: usize| (top - 8 * i) as *mut u64;
        slot(1).write(0); // never-returned-to slot (keeps alignment)
        slot(2).write(mcsim_coro_thunk as *const () as usize as u64); // ret target
        slot(3).write(0); // rbp
        slot(4).write(0); // rbx
        slot(5).write(self as *mut TaskCell as u64); // r12 -> rdi in thunk
        slot(6).write(0); // r13
        slot(7).write(0); // r14
        slot(8).write(0); // r15
        self.ctx = top - 64;
    }

    #[cfg(not(target_arch = "x86_64"))]
    unsafe fn init_stack(&mut self) {
        unreachable!("cooperative runner is x86_64-only; world falls back to threads");
    }

    fn canary_ok(&self) -> bool {
        unsafe { (self.stack.ptr as *const u64).read() == STACK_CANARY }
    }
}

/// Entry point every fresh task stack starts in (called from the asm
/// thunk).  Never returns: on completion it marks the cell finished and
/// switches back to the host forever.
#[cfg(target_arch = "x86_64")]
#[no_mangle]
unsafe extern "sysv64" fn mcsim_coro_entry(cell: *mut TaskCell) -> ! {
    let body = (*cell).body.take().expect("task body runs once");
    // The body contains its own catch_unwind (the supervisor loop); this
    // backstop only exists because unwinding must never reach the asm
    // frame below us.
    if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(cell))) {
        (*cell).escaped = Some(e);
    }
    (*cell).finished = true;
    loop {
        mcsim_ctx_switch(&mut (*cell).ctx, (*cell).host);
    }
}

/// Switch from inside a task back to its hosting worker.  Must only be
/// called on the task's own stack.
unsafe fn switch_to_host(cell: *mut TaskCell) {
    #[cfg(target_arch = "x86_64")]
    mcsim_ctx_switch(&mut (*cell).ctx, (*cell).host);
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = cell;
        unreachable!("cooperative runner is x86_64-only");
    }
}

/// Switch from a worker into a (fresh or parked) task.  Must only be
/// called by the worker that owns the `Running` transition.
unsafe fn switch_to_task(cell: *mut TaskCell) {
    #[cfg(target_arch = "x86_64")]
    mcsim_ctx_switch(&mut (*cell).host, (*cell).ctx);
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = cell;
        unreachable!("cooperative runner is x86_64-only");
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
/// protocol traffic (the cooperative analogue of the threaded runner's
/// post-return `service_protocol` loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Program,
    Service,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Queued in the heap under `Slot::key`.
    Runnable,
    /// Currently executing on some worker (at most one world-wide).
    Running,
    /// Parked in a communication wait.
    Waiting,
    /// Task body returned; stack is dead.
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
    /// A task is currently executing; dispatch is strictly serialized.
    running: bool,
    /// Tasks still in `Mode::Program`.
    unfinished: usize,
    /// Tasks not yet `Done`.
    live: usize,
}

/// Shared scheduler state: one per cooperative world run.
pub(crate) struct Sched {
    inner: Mutex<Inner>,
    cv: Condvar,
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
                running: false,
                unfinished: size,
                live: size,
            }),
            cv: Condvar::new(),
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
                drop(g);
                self.cv.notify_one();
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

    /// Wake reason the dispatcher decided for `rank`; read by the worker
    /// right before switching in.
    fn take_dispatch(&self, g: &mut Inner) -> Option<(usize, WakeCause)> {
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
        None
    }

    /// Handle global quiescence: nothing runnable, nothing running, but
    /// live tasks remain.  Always enqueues at least one wake.
    fn quiesce(&self, g: &mut Inner) {
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
        // distant world deadline — the same order the threaded runner's
        // real-time windows would resolve in.
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

    /// Process a park (or completion) after the worker regained control.
    /// Returns true when the whole world is done.
    fn after_slice(&self, rank: usize, cell: &TaskCell) -> bool {
        let mut g = self.inner.lock().unwrap();
        g.running = false;
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
                    // A yielding task stays runnable at its own clock.
                    ParkKind::Yield => true,
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
        let done = g.live == 0;
        drop(g);
        self.cv.notify_all();
        done
    }
}

/// The cell table workers index into.  Access discipline: the worker
/// holding the `running` transition for rank `r` is the only one touching
/// cell `r`; the scheduler mutex orders handoffs.
pub(crate) struct CellTable {
    // Boxed on purpose: each cell's coroutine context stores
    // `self as *mut TaskCell` at construction, so the cell's address
    // must survive being collected into (or moved with) the Vec.
    #[allow(clippy::vec_box)]
    cells: Vec<Box<TaskCell>>,
}

unsafe impl Sync for CellTable {}

impl CellTable {
    pub(crate) fn new(stack_bytes: usize, bodies: Vec<TaskBody>) -> CellTable {
        CellTable {
            cells: bodies
                .into_iter()
                .map(|b| TaskCell::new(stack_bytes, b))
                .collect(),
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

/// Worker loop: dispatch the lowest-keyed runnable task, run its slice,
/// publish its park.  Exits when every task is done.
pub(crate) fn worker_loop(sched: &Sched, table: &CellTable) {
    loop {
        let (rank, wake) = {
            let mut g = sched.inner.lock().unwrap();
            loop {
                if g.live == 0 {
                    return;
                }
                if !g.running {
                    if let Some((rank, wake)) = sched.take_dispatch(&mut g) {
                        g.running = true;
                        break (rank, wake);
                    }
                    // Quiescent: manufacture the deterministic wake-up.
                    sched.quiesce(&mut g);
                    continue;
                }
                g = sched.cv.wait(g).unwrap();
            }
        };
        let cell = table.cell_ptr(rank);
        unsafe {
            (*cell).wake = wake;
            switch_to_task(cell);
            if !(*cell).canary_ok() {
                // The guard word at the stack base was overwritten: frames
                // below it are already corrupt, so unwinding is unsafe.
                eprintln!(
                    "mcsim: task stack overflow on rank {rank} \
                     (raise World::with_stack_bytes); aborting"
                );
                std::process::abort();
            }
        }
        let done = sched.after_slice(rank, unsafe { &*cell });
        if done {
            return;
        }
    }
}

/// Handle the endpoint holds on its own task + the scheduler: park and
/// notify entry points used by the communication layer.
pub(crate) struct CoopHandle {
    cell: *mut TaskCell,
    sched: Arc<Sched>,
}

unsafe impl Send for CoopHandle {}

impl CoopHandle {
    pub(crate) fn new(cell: *mut TaskCell, sched: Arc<Sched>) -> CoopHandle {
        CoopHandle { cell, sched }
    }

    /// Park the current task and return why it was resumed.  Must be
    /// called from inside the task (on its coroutine stack).
    pub(crate) fn park(&self, kind: ParkKind, clock: f64) -> WakeCause {
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

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// Bare coroutine round trip: resume / park / resume-to-completion.
    #[test]
    fn coroutine_switches_and_finishes() {
        let sched = Arc::new(Sched::new(1));
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        let sched2 = sched.clone();
        let body: TaskBody = Box::new(move |cell| {
            let h = CoopHandle::new(cell, sched2.clone());
            log2.lock().unwrap().push("first");
            let w = h.park(ParkKind::Yield, 1.0);
            assert_eq!(w, WakeCause::Message);
            log2.lock().unwrap().push("second");
        });
        let table = CellTable::new(COOP_STACK_BYTES, vec![body]);
        worker_loop(&sched, &table);
        assert_eq!(*log.lock().unwrap(), vec!["first", "second"]);
    }

    /// Two tasks ping-ponging runnability purely through notify: the
    /// scheduler picks the lowest (clock, rank) key every time.
    #[test]
    fn lowest_key_runs_first() {
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
        let table = CellTable::new(COOP_STACK_BYTES, bodies);
        worker_loop(&sched, &table);
        let got = order.lock().unwrap().clone();
        // Rank 0 starts (tie on key 0 broken by rank), and rounds
        // alternate deterministically.
        assert_eq!(got, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    /// With no messages in flight and no silence-capable waiter, the
    /// scheduler tears the world down instead of hanging.
    #[test]
    fn deadlock_becomes_shutdown() {
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
        let table = CellTable::new(COOP_STACK_BYTES, vec![body]);
        worker_loop(&sched, &table);
        assert_eq!(*saw.lock().unwrap(), Some(WakeCause::Shutdown));
    }

    /// Silence-capable waits get a Silence wake at quiescence, earliest
    /// expiry first.
    #[test]
    fn silence_wakes_lowest_clock_first() {
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
        let table = CellTable::new(COOP_STACK_BYTES, bodies);
        worker_loop(&sched, &table);
        assert_eq!(*order.lock().unwrap(), vec![1, 0]);
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
        let sched = Arc::new(Sched::new(1));
        let out: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
        let out2 = out.clone();
        let body: TaskBody = Box::new(move |_cell| {
            *out2.lock().unwrap() = burn(2000, 0);
        });
        let table = CellTable::new(COOP_STACK_BYTES, vec![body]);
        worker_loop(&sched, &table);
        assert!(*out.lock().unwrap() > 0);
    }
}
