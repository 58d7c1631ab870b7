//! Stackful fibers for x86_64 Linux: stack mapping and the context switch.
//!
//! A [`Fiber`] runs a closure on its own [`Stack`] and can suspend midway,
//! handing control back to whoever resumed it; the resumer continues on
//! its own stack, on the same OS thread. A switch saves the callee-saved
//! registers of the side that leaves, loads those of the side that
//! enters, and swaps the stack pointer — a few dozen instructions, where
//! handing a baton between OS threads costs two scheduler round trips.
//!
//! This is the engine's `unsafe` module (DESIGN.md §11). Its invariants:
//!
//! * **Exclusive stacks.** A [`Stack`] is an `mmap`ed region owned by one
//!   value. Frames live on it only while a fiber on it has started and
//!   not yet ended; [`Fiber::into_stack`] and `Drop` end such a fiber
//!   (by cancellation, below) before the stack is released or reused.
//! * **Guarded overflow.** The lowest page of every stack is `PROT_NONE`,
//!   so a fiber that overflows faults instead of scribbling on a
//!   neighbouring mapping.
//! * **No unwind crosses a switch.** The entry function catches every
//!   panic of the body; the bottom frame (the trampoline) marks the
//!   return address undefined, so unwinders and backtraces stop there.
//!   Cancellation of a suspended fiber is an unwind of a private sentinel
//!   raised inside its `suspend` call and caught by the same entry.
//! * **Strict nesting.** A fiber is resumed only while it is suspended or
//!   fresh, and suspends only while it is the one running (both checked
//!   at run time). `Fiber` and [`Suspender`] are `!Send`: a suspended
//!   fiber never migrates to another OS thread, so its frames keep
//!   seeing the thread-locals they started with.

use std::arch::naked_asm;
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

/// Usable bytes of every fiber stack: 8 MiB, what the engine's OS worker
/// threads get, because recursive applications such as Barnes-Hut need
/// more than a small default.
const STACK_BYTES: usize = 8 << 20;

/// The `PROT_NONE` page below every stack (the x86_64 Linux base page).
const GUARD_BYTES: usize = 4096;

// The libc that `std` already links on Linux; declared here so the engine
// needs no crate for three calls.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// An `mmap`ed fiber stack with a guard page; unmapped on drop.
pub(crate) struct Stack {
    base: *mut c_void,
    len: usize,
}

// SAFETY: a `Stack` exclusively owns its mapping, and a `Fiber` hands its
// stack out only after every frame on it has ended, so moving the value to
// another thread moves plain memory.
unsafe impl Send for Stack {}

impl Stack {
    /// Maps a fresh stack. Pages are touched lazily by the fiber.
    ///
    /// # Panics
    ///
    /// If the kernel refuses the mapping.
    pub(crate) fn new() -> Stack {
        let len = STACK_BYTES + GUARD_BYTES;
        // SAFETY: a new anonymous private mapping aliases no existing
        // memory; the arguments are valid for `mmap(2)`.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            panic!(
                "cannot map a {len}-byte fiber stack: {}",
                std::io::Error::last_os_error()
            );
        }
        let stack = Stack { base, len };
        // SAFETY: the lowest page lies inside the mapping just created, and
        // nothing references it yet.
        if unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } != 0 {
            panic!(
                "cannot protect a fiber stack's guard page: {}",
                std::io::Error::last_os_error()
            );
        }
        stack
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u64 {
        self.base.cast::<u8>().wrapping_add(self.len).cast()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` are exactly one mapping this value owns, and
        // no frame lives on it (see the type's `Send` justification).
        unsafe { munmap(self.base, self.len) };
    }
}

/// `suspend` returns normally.
const RESUME: usize = 0;
/// `suspend` unwinds with [`Cancelled`] instead of returning.
const CANCEL: usize = 1;

/// The unwind payload that ends a cancelled fiber.
struct Cancelled;

/// State shared by a fiber, its entry function and its [`Suspender`].
struct Ctx {
    /// The resumer's saved stack pointer while the fiber runs.
    caller_sp: Cell<*mut u8>,
    /// The fiber's saved stack pointer while it is suspended.
    fiber_sp: Cell<*mut u8>,
    /// Whether the fiber is executing (between a resume and its return).
    running: Cell<bool>,
    /// Whether `suspend` must unwind instead of switching out.
    cancelling: Cell<bool>,
    /// How the body ended; set by the entry right before its last switch.
    outcome: Cell<Option<std::thread::Result<()>>>,
}

type Body = Box<dyn FnOnce(Suspender)>;

struct Start {
    body: Body,
    ctx: Rc<Ctx>,
}

/// What a [`Fiber::resume`] came back with.
pub(crate) enum Exit {
    /// The body called [`Suspender::suspend`].
    Suspended,
    /// The body ended: `Err` carries the payload of its panic.
    Returned(std::thread::Result<()>),
}

/// A closure running on its own stack, resumable until it returns.
pub(crate) struct Fiber {
    ctx: Rc<Ctx>,
    stack: Option<Stack>,
    /// The body, until the first resume.
    start: Option<Box<Start>>,
    /// Started and not yet ended: frames live on the stack.
    live: bool,
}

impl Fiber {
    /// Prepares `body` to run on `stack`; nothing runs until
    /// [`Fiber::resume`]. The body receives the [`Suspender`] it uses to
    /// hand control back.
    pub(crate) fn new(stack: Stack, body: Body) -> Fiber {
        // The first switch into the fiber "returns" into the trampoline
        // through this frame, laid out as `switch` leaves a suspended
        // side: MXCSR and x87 control word, r15, r14, r13, r12, rbx, rbp,
        // return address. Above it sit the trampoline's own (null) return
        // address and 8 bytes of padding, so the trampoline runs with a
        // 16-aligned stack pointer and its `call` enters `fiber_entry`
        // aligned as the ABI requires.
        let top = stack.top();
        let frame: [u64; 10] = [
            0x037F_0000_1F80, // default FCW (high half) and MXCSR (low half)
            0,                // r15
            0,                // r14
            0,                // r13
            0,                // r12
            fiber_entry as *const () as u64,
            0, // rbp: ends frame-pointer chains
            trampoline as *const () as u64,
            0, // the trampoline's return address
            0, // padding
        ];
        // SAFETY: the 80 bytes below the 16-aligned top lie inside the
        // stack's writable part, which nothing else references yet.
        let sp = unsafe {
            let sp = top.sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            sp
        };
        let ctx = Rc::new(Ctx {
            caller_sp: Cell::new(std::ptr::null_mut()),
            fiber_sp: Cell::new(sp.cast()),
            running: Cell::new(false),
            cancelling: Cell::new(false),
            outcome: Cell::new(None),
        });
        Fiber {
            start: Some(Box::new(Start {
                body,
                ctx: ctx.clone(),
            })),
            ctx,
            stack: Some(stack),
            live: false,
        }
    }

    /// Runs the fiber until it suspends or its body ends.
    ///
    /// # Panics
    ///
    /// If the fiber already ended or is running.
    pub(crate) fn resume(&mut self) -> Exit {
        assert!(!self.ctx.running.get(), "fiber resumed while running");
        let arg = match self.start.take() {
            Some(start) => {
                self.live = true;
                Box::into_raw(start) as usize
            }
            None => {
                assert!(self.live, "fiber resumed after it ended");
                RESUME
            }
        };
        self.switch_in(arg)
    }

    /// Switches into the fiber, passing `arg` to its pending `suspend`
    /// (or, on the first entry, its `Start` to `fiber_entry`).
    fn switch_in(&mut self, arg: usize) -> Exit {
        self.ctx.running.set(true);
        // SAFETY: the fiber is fresh (its prepared frame is on top of its
        // stack) or suspended inside `switch` (its saved registers are on
        // top), and its stack is alive for as long as `self`. The fiber
        // switches back through `caller_sp` with this frame intact.
        unsafe { switch(self.ctx.caller_sp.as_ptr(), self.ctx.fiber_sp.get(), arg) };
        self.ctx.running.set(false);
        match self.ctx.outcome.take() {
            Some(outcome) => {
                self.live = false;
                Exit::Returned(outcome)
            }
            None => Exit::Suspended,
        }
    }

    /// Ends the fiber without letting it run on: a suspended body unwinds
    /// from its `suspend` call (running its destructors), a fresh body is
    /// dropped unrun.
    fn cancel(&mut self) {
        self.start = None;
        if self.live {
            // `suspend` never switches out once `cancelling` is set, so
            // this returns only when the body has ended.
            self.ctx.cancelling.set(true);
            self.switch_in(CANCEL);
        }
    }

    /// Ends the fiber as on drop and hands back its stack for reuse.
    pub(crate) fn into_stack(mut self) -> Stack {
        self.cancel();
        self.stack.take().expect("fiber owns its stack")
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        self.cancel();
    }
}

/// A running fiber's handle for handing control back to its resumer.
pub(crate) struct Suspender {
    ctx: Rc<Ctx>,
}

impl Suspender {
    /// Switches back to the resumer; returns when the fiber is resumed.
    ///
    /// # Panics
    ///
    /// Unwinds with a private sentinel (caught by the fiber's entry) when
    /// the fiber is being cancelled; panics if called outside the fiber.
    pub(crate) fn suspend(&self) {
        let ctx = &*self.ctx;
        if ctx.cancelling.get() {
            panic::resume_unwind(Box::new(Cancelled));
        }
        assert!(ctx.running.get(), "suspend called outside its fiber");
        // SAFETY: this fiber is the one running (checked above; a
        // `Suspender` is `!Send` and only reachable from its own body), so
        // `caller_sp` holds its resumer's context, which is parked inside
        // `switch` on a live stack.
        let signal = unsafe { switch(ctx.fiber_sp.as_ptr(), ctx.caller_sp.get(), 0) };
        if signal == CANCEL {
            panic::resume_unwind(Box::new(Cancelled));
        }
    }
}

/// First Rust frame on every fiber stack: runs the body, records how it
/// ended, and switches out for the last time.
///
/// # Safety
///
/// Entered only from `trampoline`, with `start` from `Box::into_raw` in
/// [`Fiber::resume`].
unsafe extern "C" fn fiber_entry(start: *mut Start) -> ! {
    let ctx: *const Ctx = {
        // SAFETY: per the function contract, `start` is an owned box.
        let Start { body, ctx } = *unsafe { Box::from_raw(start) };
        let suspender = Suspender { ctx: ctx.clone() };
        let outcome = match panic::catch_unwind(AssertUnwindSafe(move || body(suspender))) {
            Err(payload) if payload.is::<Cancelled>() => Ok(()),
            outcome => outcome,
        };
        ctx.outcome.set(Some(outcome));
        // The `Fiber` holds another `Rc`, so the context outlives this one.
        Rc::as_ptr(&ctx)
    };
    // Every value of this frame has been dropped: the stack may be reused
    // as soon as the switch below leaves it.
    // SAFETY: the `Fiber` that resumed us is alive (it is parked in
    // `switch_in`) and owns `ctx`; its resumer context is valid.
    unsafe { switch((*ctx).fiber_sp.as_ptr(), (*ctx).caller_sp.get(), 0) };
    // Nothing resumes an ended fiber (`Fiber::resume` checks).
    std::process::abort()
}

/// Saves the current context's callee-saved registers (rbx, rbp,
/// r12–r15, MXCSR, x87 control word) on its stack, stores its stack
/// pointer to `*save`, then loads the context parked at `to` and returns
/// `arg` there — as the return value of *its* `switch` call.
///
/// # Safety
///
/// `to` must be a stack pointer saved by `switch` (or a frame laid out
/// like one) on a live stack that nothing else is executing on.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8, arg: usize) -> usize {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rax, rdx",
        "ret",
    )
}

/// Bottom frame of every fiber: calls `fiber_entry` (in rbx, from the
/// prepared frame) with the `Start` the first switch passed in rax. Its
/// CFI marks the return address undefined, which ends every unwind and
/// backtrace here.
///
/// # Safety
///
/// Only reached by the first `switch` into a frame laid out by
/// [`Fiber::new`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rax",
        "call rbx",
        "ud2",
        ".cfi_endproc",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn fiber(body: impl FnOnce(Suspender) + 'static) -> Fiber {
        Fiber::new(Stack::new(), Box::new(body))
    }

    #[test]
    fn suspends_and_resumes_in_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mut f = fiber(move |s| {
            for i in 0..3 {
                l.borrow_mut().push(i);
                s.suspend();
            }
        });
        for i in 0..3 {
            assert!(matches!(f.resume(), Exit::Suspended));
            assert_eq!(*log.borrow(), (0..=i).collect::<Vec<_>>());
        }
        assert!(matches!(f.resume(), Exit::Returned(Ok(()))));
    }

    #[test]
    fn panics_come_back_as_payloads() {
        let mut f = fiber(|s| {
            s.suspend();
            panic!("inside");
        });
        assert!(matches!(f.resume(), Exit::Suspended));
        match f.resume() {
            Exit::Returned(Err(p)) => assert_eq!(p.downcast_ref::<&str>(), Some(&"inside")),
            _ => panic!("expected the body's panic"),
        }
    }

    #[test]
    fn deep_recursion_fits_the_stack() {
        /// Recurses until `used` bytes of stack lie below `base`; returns
        /// the depth reached.
        fn descend(base: usize, used: usize, s: &Suspender) -> usize {
            let pad = std::hint::black_box([0u8; 1024]);
            if base - pad.as_ptr() as usize >= used {
                s.suspend();
                1
            } else {
                descend(base, used, s) + 1 + usize::from(pad[0])
            }
        }
        // 6 MiB: three times the default stack of a spawned OS thread.
        let depth = Rc::new(Cell::new(0));
        let d = depth.clone();
        let mut f = fiber(move |s| {
            let base = std::hint::black_box(0u8);
            d.set(descend(&base as *const u8 as usize, 6 << 20, &s));
        });
        assert!(matches!(f.resume(), Exit::Suspended));
        assert!(matches!(f.resume(), Exit::Returned(Ok(()))));
        assert!(depth.get() > 1000, "reached depth {}", depth.get());
    }

    #[test]
    fn cancellation_unwinds_the_body_and_frees_the_stack_for_reuse() {
        struct Flag(Rc<Cell<bool>>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let d = dropped.clone();
        let mut f = fiber(move |s| {
            let _flag = Flag(d);
            loop {
                s.suspend();
            }
        });
        assert!(matches!(f.resume(), Exit::Suspended));
        let stack = f.into_stack();
        assert!(dropped.get(), "cancellation ran the body's destructors");
        let mut g = Fiber::new(stack, Box::new(|s: Suspender| s.suspend()));
        assert!(matches!(g.resume(), Exit::Suspended));
        assert!(matches!(g.resume(), Exit::Returned(Ok(()))));
    }
}
