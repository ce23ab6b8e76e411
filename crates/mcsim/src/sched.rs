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
//! ## One hub, one invariant
//!
//! Everything the ranks share lives in one world-owned `Hub`: the
//! scheduler's slot table and heap, one plain `VecDeque<Message>` mailbox
//! per rank, the topology's link state and the task control blocks.  It
//! has no lock.  Exactly one of {dispatch loop, one task} executes at any
//! instant, and whichever that is reaches the hub through one private,
//! non-re-entrant accessor (`Hub::with`) that is never held across a
//! context switch; the invariant is written once, on the hub's
//! `unsafe impl Sync`.
//!
//! A send is one `Hub::post`: push onto the destination's mailbox and
//! make its task runnable.  A parking task publishes its own park
//! (`Hub::park`) and switches back to the dispatch loop; the loop picks
//! the next task, and the wake cause waits in the slot for the resumed
//! task to read.
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
//!   of its own ([`COOP_STACK_BYTES`] of stack) and a turn flag under a
//!   lock, with a condition variable, lets exactly one of {dispatch loop,
//!   task} run.  The
//!   schedule is the same total order, so every observable is identical;
//!   only the cost of a switch differs.  It is also compiled into x86_64
//!   *test* builds, where the unit tests run both back ends against each
//!   other.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::{BinaryHeap, VecDeque};

use crate::message::{Message, Rank};
use crate::model::{MachineModel, NetState, Topology};

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
pub(crate) type TaskBody = Box<dyn FnOnce() + Send>;

/// Per-task control block: the switch back end's state and the body's
/// completion record.  Allocated by [`run`], reached through the raw
/// pointer in the task's hub slot, and only ever touched by whichever of
/// {dispatch loop, task} currently runs (the hub's invariant).
struct TaskCell {
    switch: Switch,
    /// Set once the task body has returned.
    finished: bool,
    /// A panic that escaped the task body's own catch (a harness bug);
    /// re-raised on the host thread so it is not silently lost.
    escaped: Option<Box<dyn Any + Send>>,
    body: Option<TaskBody>,
}

impl TaskCell {
    /// A heap cell owned through the returned pointer; [`run`] frees it.
    fn new(body: TaskBody) -> *mut TaskCell {
        // Allocate first: the switch back end captures the cell's address.
        let cell: *mut TaskCell = Box::into_raw(Box::<TaskCell>::new_uninit()).cast();
        let switch = Switch::new(cell);
        // SAFETY: `cell` is a fresh allocation of `TaskCell`'s layout that
        // nothing reads before this write (a baton thread spawned by
        // `Switch::new` first waits for its turn).
        unsafe {
            cell.write(TaskCell {
                switch,
                finished: false,
                escaped: None,
                body: Some(body),
            });
        }
        cell
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
    if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
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
// The hub: scheduler, mailboxes, link state, task table.
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

/// Everything the world holds per rank.
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
    /// Why the task was (or will be) resumed; read by [`Hub::park`] on
    /// the way out.
    wake: WakeCause,
    /// Messages posted to this rank and not yet popped by it, in posting
    /// order.  Holds no buffer while empty: at P = 1024 a retained
    /// high-water mark would pin 1023 envelopes per rank.
    mailbox: VecDeque<Message>,
    /// The rank's control block; null outside [`run`].
    cell: *mut TaskCell,
}

struct Inner {
    slots: Vec<Slot>,
    heap: BinaryHeap<HeapEntry>,
    /// Tasks still in `Mode::Program`.
    unfinished: usize,
    /// Tasks not yet `Done`.
    live: usize,
    /// Per-link state of a non-crossbar [`Topology`]; `None` keeps the
    /// closed-form transit.
    net: Option<NetState>,
}

/// The world's shared state, one per `World::run`: see the module header.
pub(crate) struct Hub {
    inner: UnsafeCell<Inner>,
    /// Debug builds catch an access made while another is in progress.
    #[cfg(debug_assertions)]
    busy: std::cell::Cell<bool>,
}

// SAFETY: exactly one of {dispatch loop, one task} executes at any
// instant, and `with` — the only way to `inner` and `busy` — is entered
// by that one alone and never spans a context switch.  On the coroutine
// back end they all share the OS thread that called `run`, so nothing is
// concurrent.  On the baton back end every task has a thread of its own,
// but each runs only between a `Baton::wait` and the next `Baton::pass`,
// which acquire and release `Baton::task_turn`'s mutex: whatever one
// holder of the turn wrote happens-before whatever the next one reads.
unsafe impl Sync for Hub {}
// SAFETY: the only fields that are not `Send` by themselves are the
// slots' `*mut TaskCell` (and the coroutine stacks behind them); the cells
// are owned by `run`, which frees them on the thread that made them, and
// are dereferenced only under the invariant above.
unsafe impl Send for Hub {}

impl Hub {
    pub(crate) fn new(size: usize, topology: Topology) -> Hub {
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
                mailbox: VecDeque::new(),
                cell: std::ptr::null_mut(),
            })
            .collect();
        let heap = (0..size).map(|rank| HeapEntry { key: 0.0, rank }).collect();
        Hub {
            inner: UnsafeCell::new(Inner {
                slots,
                heap,
                unfinished: size,
                live: size,
                net: (topology != Topology::Crossbar).then(|| NetState::new(topology)),
            }),
            #[cfg(debug_assertions)]
            busy: std::cell::Cell::new(false),
        }
    }

    /// The one door to the shared state.  `f` must not re-enter the hub
    /// and cannot switch context (nothing it can reach does).
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        #[cfg(debug_assertions)]
        let _busy = {
            struct Busy<'a>(&'a std::cell::Cell<bool>);
            impl Drop for Busy<'_> {
                fn drop(&mut self) {
                    self.0.set(false);
                }
            }
            assert!(!self.busy.replace(true), "re-entrant hub access");
            Busy(&self.busy)
        };
        // SAFETY: see `unsafe impl Sync for Hub` — the caller is the only
        // code executing, and no other `&mut Inner` is live because `with`
        // is not re-entered (checked above in debug builds).
        f(unsafe { &mut *self.inner.get() })
    }

    /// Deliver `msg` (data, protocol frame, or poison) to `to`'s mailbox
    /// and make its task runnable at the message's arrival time.
    #[inline]
    pub(crate) fn post(&self, to: Rank, msg: Message) {
        self.with(|h| {
            let arrival = msg.arrival;
            h.slots[to].mailbox.push_back(msg);
            h.notify(to, arrival);
        })
    }

    /// The oldest message waiting for `rank`, if any.  Called by `rank`'s
    /// own task only.  The pop that empties the mailbox releases its
    /// buffer.
    #[inline]
    pub(crate) fn pop(&self, rank: Rank) -> Option<Message> {
        self.with(|h| {
            let mailbox = &mut h.slots[rank].mailbox;
            let msg = mailbox.pop_front();
            if mailbox.is_empty() {
                *mailbox = VecDeque::new();
            }
            msg
        })
    }

    /// Arrival time of `bytes` departing `src` for `dst` at `depart`:
    /// routed over the topology's links (with contention) when the world
    /// has one, the closed-form postal transit otherwise.
    #[inline]
    pub(crate) fn transit(
        &self,
        model: &MachineModel,
        src: Rank,
        dst: Rank,
        bytes: usize,
        depart: f64,
    ) -> f64 {
        self.with(|h| match &mut h.net {
            Some(net) => net.transit(model, src, dst, bytes, depart),
            None => depart + model.transit(bytes),
        })
    }

    /// Total virtual seconds messages spent queued behind busy links.
    pub(crate) fn contended_secs(&self) -> f64 {
        self.with(|h| h.net.as_ref().map_or(0.0, |net| net.queued))
    }

    /// Park `rank`'s task — which must be the caller — reporting its
    /// virtual clock, and return why it was resumed.
    pub(crate) fn park(&self, rank: Rank, kind: ParkKind, clock: f64) -> WakeCause {
        let cell = self.with(|h| {
            h.parked(rank, kind, clock);
            h.slots[rank].cell
        });
        assert!(!cell.is_null(), "tasks park only inside sched::run");
        // SAFETY: non-null means `run` made the cell and has not freed it
        // yet (it does so only after every task finished); the caller is
        // the cell's task.
        unsafe { switch_to_host(cell) };
        self.with(|h| h.slots[rank].wake)
    }
}

impl Inner {
    /// A message with the given modeled arrival time was enqueued for
    /// `to`; make the destination runnable if it was parked.
    #[inline]
    fn notify(&mut self, to: usize, arrival: f64) {
        let s = &mut self.slots[to];
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
                self.heap.push(HeapEntry { key, rank: to });
            }
            State::Runnable => {
                // Decrease-key: push a better duplicate, the stale entry
                // is discarded on pop.
                let nk = s.clock.max(s.mail_min);
                if nk < s.key {
                    s.key = nk;
                    self.heap.push(HeapEntry { key: nk, rank: to });
                }
            }
            // Running: its own drain will pick the message up (mail is
            // latched for the park decision).  Done: every program has
            // finished; the message can no longer matter.
            State::Running | State::Done => {}
        }
    }

    /// Mark the lowest-keyed runnable task running and return its rank
    /// and cell, or `None` once every task is done.
    fn next_dispatch(&mut self) -> Option<(usize, *mut TaskCell)> {
        while self.live > 0 {
            while let Some(e) = self.heap.pop() {
                let s = &mut self.slots[e.rank];
                if s.state != State::Runnable || e.key != s.key {
                    continue; // stale duplicate
                }
                s.state = State::Running;
                s.mail = false;
                s.mail_min = f64::INFINITY;
                return Some((e.rank, s.cell));
            }
            // Quiescent: manufacture the deterministic wake-up.
            self.quiesce();
        }
        None
    }

    /// Make a waiting task runnable at its own clock with `wake`.
    fn wake_waiter(&mut self, rank: usize, wake: WakeCause) {
        let s = &mut self.slots[rank];
        s.state = State::Runnable;
        s.wake = wake;
        s.key = s.clock;
        let key = s.key;
        self.heap.push(HeapEntry { key, rank });
    }

    /// Handle global quiescence: nothing runnable, but live tasks remain.
    /// Always enqueues at least one wake.
    fn quiesce(&mut self) {
        if self.unfinished > 0 {
            // One silence-capable program waiter: earliest virtual expiry
            // wins (rank breaks ties), so a short recv timeout fires
            // before a distant world deadline.
            let pick = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.mode == Mode::Program && s.state == State::Waiting && s.expiry.is_finite()
                })
                .min_by(|(ar, a), (br, b)| a.expiry.total_cmp(&b.expiry).then(ar.cmp(br)))
                .map(|(r, _)| r);
            if let Some(rank) = pick {
                return self.wake_waiter(rank, WakeCause::Silence);
            }
            // True deadlock: no message in flight, nobody silence-capable.
            // Deterministic teardown (SimError::Shutdown at every waiter)
            // instead of a hang.
            if std::env::var_os("MCSIM_SCHED_DEBUG").is_some() {
                for (r, s) in self.slots.iter().enumerate() {
                    eprintln!(
                        "mcsim-sched deadlock: rank={r} mode={:?} state={:?} clock={} mail={} expiry={}",
                        s.mode, s.state, s.clock, s.mail, s.expiry
                    );
                }
            }
        }
        // Every program returned (release the service loops) or the
        // world is deadlocked: either way every waiter gets `Shutdown`.
        for rank in 0..self.slots.len() {
            if self.slots[rank].state == State::Waiting {
                self.wake_waiter(rank, WakeCause::Shutdown);
            }
        }
    }

    /// Publish the running task's park, just before it switches out.
    fn parked(&mut self, rank: usize, kind: ParkKind, clock: f64) {
        let s = &mut self.slots[rank];
        debug_assert_eq!(s.state, State::Running, "only the running task parks");
        s.clock = clock;
        let expiry = match kind {
            ParkKind::Wait { expiry } => expiry,
            ParkKind::Service => f64::INFINITY,
        };
        if kind == ParkKind::Service && s.mode == Mode::Program {
            s.mode = Mode::Service;
            self.unfinished -= 1;
        }
        if s.mail {
            // Mail that raced in during the slice (a self-send or a
            // protocol echo) wakes the task immediately.
            s.state = State::Runnable;
            s.wake = WakeCause::Message;
            s.key = s.clock.max(s.mail_min);
            let key = s.key;
            self.heap.push(HeapEntry { key, rank });
        } else {
            s.state = State::Waiting;
            s.expiry = expiry;
        }
    }

    /// Record that `rank`'s task body returned.
    fn finished(&mut self, rank: usize) {
        let s = &mut self.slots[rank];
        s.state = State::Done;
        // Defensive: bodies park Service before finishing, but a panic
        // escaping the harness could skip that.
        if s.mode == Mode::Program {
            s.mode = Mode::Service;
            self.unfinished -= 1;
        }
        self.live -= 1;
    }
}

/// The dispatch loop, on the thread that called `World::run`: one task
/// per body (rank = index), then resume the lowest-keyed runnable task
/// until every task is done (and, on the baton back end, its thread
/// joined).  Returns a panic that escaped a task harness, if any.
pub(crate) fn run(hub: &Hub, bodies: Vec<TaskBody>) -> Option<Box<dyn Any + Send>> {
    hub.with(|h| {
        assert_eq!(bodies.len(), h.slots.len(), "one body per rank");
        for (slot, body) in h.slots.iter_mut().zip(bodies) {
            slot.cell = TaskCell::new(body);
        }
    });
    while let Some((rank, cell)) = hub.with(|h| h.next_dispatch()) {
        // SAFETY: `rank` was just moved to `Running`, so its task is
        // unfinished and suspended; nothing else touches the cell until
        // the switch returns, and then only this loop does.
        let finished = unsafe {
            switch_to_task(cell);
            (*cell).finished
        };
        if finished {
            hub.with(|h| h.finished(rank));
        }
    }
    let cells: Vec<*mut TaskCell> = hub.with(|h| {
        let take = |s: &mut Slot| std::mem::replace(&mut s.cell, std::ptr::null_mut());
        h.slots.iter_mut().map(take).collect()
    });
    let mut escaped = None;
    for cell in cells {
        // SAFETY: the cell came from `Box::into_raw` in `TaskCell::new`,
        // its task has finished, and no slot points at it any more.
        let mut cell = unsafe { Box::from_raw(cell) };
        match &mut cell.switch {
            #[cfg(target_arch = "x86_64")]
            Switch::Coro(_) => {}
            #[cfg(any(test, not(target_arch = "x86_64")))]
            Switch::Baton(b) => b.join(),
        }
        escaped = escaped.or(cell.escaped.take());
    }
    escaped
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
    use crate::message::Body;
    use crate::tag::Tag;
    use std::sync::{Arc, Mutex};

    /// Run `test` once per switch back end this target compiles (off
    /// x86_64 both passes use the baton).
    fn on_each_back_end(test: impl Fn()) {
        test();
        with_baton(test);
    }

    fn hub(size: usize) -> Arc<Hub> {
        Arc::new(Hub::new(size, Topology::Crossbar))
    }

    fn run_bodies(hub: &Hub, bodies: Vec<TaskBody>) {
        if let Some(e) = run(hub, bodies) {
            std::panic::resume_unwind(e);
        }
    }

    fn data(src: Rank, byte: u8, arrival: f64) -> Message {
        Message {
            src,
            tag: Tag::user(0),
            body: Body::Data(vec![byte]),
            arrival,
        }
    }

    /// Keep parking in service mode until the world completes.
    fn serve(hub: &Hub, rank: Rank, clock: f64) {
        while hub.park(rank, ParkKind::Service, clock) != WakeCause::Shutdown {}
    }

    /// The override really selects the baton — its task bodies run on a
    /// thread of their own — so the parity tests compare two back ends.
    #[test]
    fn with_baton_hosts_tasks_on_their_own_threads() {
        let task_thread = || {
            let seen = Arc::new(Mutex::new(None));
            let seen2 = seen.clone();
            let body: TaskBody = Box::new(move || {
                *seen2.lock().unwrap() = Some(std::thread::current().id());
            });
            run_bodies(&hub(1), vec![body]);
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
            let hub = hub(1);
            let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
            let (log2, hub2) = (log.clone(), hub.clone());
            let body: TaskBody = Box::new(move || {
                log2.lock().unwrap().push("first");
                let w = hub2.park(0, ParkKind::Wait { expiry: 1.0 }, 1.0);
                assert_eq!(w, WakeCause::Silence);
                log2.lock().unwrap().push("second");
            });
            run_bodies(&hub, vec![body]);
            assert_eq!(*log.lock().unwrap(), vec!["first", "second"]);
        });
    }

    /// Two tasks ping-ponging runnability purely through posts: the
    /// scheduler picks the lowest (clock, rank) key every time.
    #[test]
    fn lowest_key_runs_first() {
        on_each_back_end(|| {
            let hub = hub(2);
            let order: Arc<Mutex<Vec<(usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<TaskBody> = Vec::new();
            for rank in 0..2usize {
                let (order, hub) = (order.clone(), hub.clone());
                bodies.push(Box::new(move || {
                    for round in 0..3u32 {
                        order.lock().unwrap().push((rank, round));
                        // Wake the peer "now" and wait for it to wake us.
                        let now = (round + 1) as f64;
                        hub.post(1 - rank, data(rank, 0, now));
                        if round < 2 {
                            let forever = ParkKind::Wait {
                                expiry: f64::INFINITY,
                            };
                            assert_eq!(hub.park(rank, forever, now), WakeCause::Message);
                        }
                    }
                    serve(&hub, rank, 3.0);
                }));
            }
            run_bodies(&hub, bodies);
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
            let hub = hub(1);
            let hub2 = hub.clone();
            let saw: Arc<Mutex<Option<WakeCause>>> = Arc::new(Mutex::new(None));
            let saw2 = saw.clone();
            let body: TaskBody = Box::new(move || {
                let forever = ParkKind::Wait {
                    expiry: f64::INFINITY,
                };
                *saw2.lock().unwrap() = Some(hub2.park(0, forever, 0.0));
            });
            run_bodies(&hub, vec![body]);
            assert_eq!(*saw.lock().unwrap(), Some(WakeCause::Shutdown));
        });
    }

    /// Silence-capable waits get a Silence wake at quiescence, earliest
    /// expiry first.
    #[test]
    fn silence_wakes_lowest_clock_first() {
        on_each_back_end(|| {
            let hub = hub(2);
            let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<TaskBody> = Vec::new();
            for rank in 0..2usize {
                let (order, hub) = (order.clone(), hub.clone());
                bodies.push(Box::new(move || {
                    // Rank 1 parks at a lower clock than rank 0.
                    let clock = if rank == 0 { 5.0 } else { 2.0 };
                    let w = hub.park(rank, ParkKind::Wait { expiry: clock }, clock);
                    assert_eq!(w, WakeCause::Silence);
                    order.lock().unwrap().push(rank);
                }));
            }
            run_bodies(&hub, bodies);
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
            let out: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
            let out2 = out.clone();
            let body: TaskBody = Box::new(move || {
                *out2.lock().unwrap() = burn(2000, 0);
            });
            run_bodies(&hub(1), vec![body]);
            assert!(*out.lock().unwrap() > 0);
        });
    }

    /// One mailbox is one FIFO: each sender's messages come out in the
    /// order it posted them, and data a sender posted before it died
    /// comes out before its poison.
    #[test]
    fn mailbox_is_fifo_and_poison_follows_the_dead_senders_data() {
        on_each_back_end(|| {
            let hub = hub(3);
            let got = Arc::new(Mutex::new(Vec::<(Rank, Option<u8>)>::new()));
            let mut bodies: Vec<TaskBody> = Vec::new();
            for rank in 0..3usize {
                let (got, hub) = (got.clone(), hub.clone());
                bodies.push(Box::new(move || {
                    if rank == 0 {
                        // Parks at clock 0; senders run (key 0) before the
                        // first arrival (key 1.0) wakes it.
                        let forever = ParkKind::Wait {
                            expiry: f64::INFINITY,
                        };
                        assert_eq!(hub.park(0, forever, 0.0), WakeCause::Message);
                        while let Some(m) = hub.pop(0) {
                            let byte = match m.body {
                                Body::Data(d) => Some(d[0]),
                                Body::Poison(_) => None,
                                Body::Dropped { .. } => unreachable!(),
                            };
                            got.lock().unwrap().push((m.src, byte));
                        }
                    } else {
                        for i in 0..4u8 {
                            hub.post(0, data(rank, i, 1.0 + i as f64));
                        }
                        if rank == 1 {
                            // Rank 1 "dies": its poison is stamped earlier
                            // than its data yet must not overtake it.
                            hub.post(
                                0,
                                Message {
                                    src: 1,
                                    tag: Tag::new(Tag::CONTROL_CTX, 0),
                                    body: Body::Poison("dead".into()),
                                    arrival: 0.5,
                                },
                            );
                        }
                    }
                    serve(&hub, rank, 9.0);
                }));
            }
            run_bodies(&hub, bodies);
            let got = got.lock().unwrap().clone();
            let from = |src| -> Vec<Option<u8>> {
                let of_src = got.iter().filter(|(s, _)| *s == src);
                of_src.map(|(_, b)| *b).collect()
            };
            assert_eq!(from(1), vec![Some(0), Some(1), Some(2), Some(3), None]);
            assert_eq!(from(2), vec![Some(0), Some(1), Some(2), Some(3)]);
            assert_eq!(got.len(), 9);
        });
    }

    /// A drained mailbox hands its buffer back: a burst must not pin its
    /// high-water mark for the life of the world.
    #[test]
    fn drained_mailbox_holds_no_buffer() {
        on_each_back_end(|| {
            let hub = hub(2);
            let capacity = |hub: &Hub| hub.with(|h| h.slots[0].mailbox.capacity());
            assert_eq!(capacity(&hub), 0, "mailboxes start unallocated");
            let hub2 = hub.clone();
            let sender: TaskBody = Box::new(move || {
                for i in 0..1000u32 {
                    hub2.post(0, data(1, i as u8, 1.0));
                }
                assert!(capacity(&hub2) >= 1000);
                serve(&hub2, 1, 1.0);
            });
            let hub2 = hub.clone();
            let receiver: TaskBody = Box::new(move || {
                let forever = ParkKind::Wait {
                    expiry: f64::INFINITY,
                };
                assert_eq!(hub2.park(0, forever, 0.0), WakeCause::Message);
                let mut n = 0;
                while let Some(m) = hub2.pop(0) {
                    assert_eq!(m.len(), 1);
                    n += 1;
                }
                assert_eq!(n, 1000);
                assert_eq!(capacity(&hub2), 0, "the emptying pop releases the buffer");
                serve(&hub2, 0, 1.0);
            });
            run_bodies(&hub, vec![receiver, sender]);
            assert_eq!(capacity(&hub), 0);
        });
    }

    /// Debug builds carry a borrow flag in the accessor: a hub access from
    /// inside a hub access panics instead of aliasing `&mut Inner`.  The
    /// coroutine pass is caught here; the baton pass is the one the test
    /// harness sees.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-entrant hub access")]
    fn reentrant_hub_access_is_caught() {
        let reenter = || {
            let hub = hub(1);
            let hub2 = hub.clone();
            let body: TaskBody = Box::new(move || {
                hub2.with(|_| hub2.contended_secs());
            });
            run_bodies(&hub, vec![body]);
        };
        let native = std::panic::catch_unwind(reenter);
        assert!(native.is_err(), "the coroutine back end must catch it too");
        with_baton(reenter);
    }
}
