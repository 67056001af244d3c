//! Floating-point mode of wavefield arithmetic: subnormals are flushed.
//!
//! The faint leading edge of every wavefield, and the tail every sponge,
//! PML and anelastic decay leaves behind, underflow into subnormal f32.
//! x86 takes a microcode assist for each operation that touches one, which
//! made the slow decile of solver steps cost 7–13× the median. Nothing
//! below `f32::MIN_POSITIVE` (1.2e-38) carries signal in fields whose
//! peaks are O(1), so every function that does arithmetic on [`Array3`]
//! wavefield data runs inside a [`FlushGuard`]: results that would be
//! subnormal become (signed) zero and subnormal inputs read as zero —
//! MXCSR.FTZ+DAZ on x86-64, FPCR.FZ on aarch64, nothing elsewhere.
//!
//! This is an invariant, not a setting: there is no switch and no
//! gradual-underflow path. Every bit-exactness contract in the workspace
//! compares two runs that are both under it.
//!
//! **Compiler caveat.** Rust and LLVM assume the default floating-point
//! environment and may fold or move *pure* float operations on that
//! assumption. The register is therefore read and written with `asm!`
//! blocks that are not marked `nomem`/`readonly`/`pure`: each is a barrier
//! for loads and stores, so arithmetic between a wavefield load and its
//! store cannot leave the guarded region. The bitwise test suites
//! (SIMD ≡ scalar, parallel ≡ serial, …) are the net under that argument.
//!
//! [`Array3`]: crate::Array3

use core::marker::PhantomData;

#[cfg(target_arch = "x86_64")]
mod arch {
    use core::arch::asm;

    /// MXCSR.FTZ (bit 15) | MXCSR.DAZ (bit 6). Every x86-64 CPU has DAZ.
    pub const FLUSH: u32 = 0x8040;
    /// The six sticky exception flags: status, not mode.
    pub const STATUS: u32 = 0x3f;

    #[inline(always)]
    pub fn read() -> u32 {
        let mut word = 0u32;
        // SAFETY: `stmxcsr` stores the 32-bit MXCSR to the given address,
        // which is a live, aligned local.
        unsafe { asm!("stmxcsr [{}]", in(reg) &raw mut word, options(nostack, preserves_flags)) };
        word
    }

    #[inline(always)]
    pub fn write(word: u32) {
        // SAFETY: `ldmxcsr` loads MXCSR from a live local. Callers pass a
        // word read from the register with only FTZ/DAZ changed, so no
        // reserved bit is set (which would fault) and no exception is
        // unmasked.
        unsafe { asm!("ldmxcsr [{}]", in(reg) &raw const word, options(nostack, preserves_flags)) };
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use core::arch::asm;

    /// FPCR.FZ (bit 24): flush subnormal inputs and results.
    pub const FLUSH: u32 = 1 << 24;
    /// FPCR holds control bits only (the flags live in FPSR).
    pub const STATUS: u32 = 0;

    #[inline(always)]
    pub fn read() -> u32 {
        let word: u64;
        // SAFETY: reading FPCR has no side effect; EL0 may access it.
        unsafe { asm!("mrs {}, fpcr", out(reg) word, options(nostack, preserves_flags)) };
        word as u32
    }

    #[inline(always)]
    pub fn write(word: u32) {
        // SAFETY: callers pass a word read from FPCR with only FZ changed;
        // the upper 32 bits of the register are reserved-zero.
        unsafe { asm!("msr fpcr, {}", in(reg) u64::from(word), options(nostack, preserves_flags)) };
    }
}

/// Architectures without such a mode: the invariant holds vacuously.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod arch {
    pub const FLUSH: u32 = 0;
    pub const STATUS: u32 = 0;

    pub fn read() -> u32 {
        0
    }

    pub fn write(_word: u32) {}
}

/// Scope in which the calling thread flushes subnormals.
///
/// Nested guards cost one register read each: only the outermost changes
/// the register, and only it restores the word it found — also when the
/// scope unwinds. The register is per thread, so a guard covers exactly
/// the thread that entered it and cannot be sent to another.
#[must_use = "the mode lasts only as long as the guard"]
pub struct FlushGuard {
    /// The control register as found, when this guard had to change it.
    restore: Option<u32>,
    _thread_bound: PhantomData<*const ()>,
}

impl FlushGuard {
    #[inline]
    pub fn enter() -> Self {
        let word = arch::read();
        let restore = if word & arch::FLUSH == arch::FLUSH {
            None
        } else {
            arch::write(word | arch::FLUSH);
            Some(word)
        };
        Self { restore, _thread_bound: PhantomData }
    }
}

impl Drop for FlushGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(word) = self.restore {
            arch::write(word);
        }
    }
}

/// Is the calling thread flushing subnormals? Always true on architectures
/// that have no such mode.
#[inline]
pub fn is_flushing() -> bool {
    arch::read() & arch::FLUSH == arch::FLUSH
}

/// The calling thread's floating-point control bits (rounding, exception
/// masks, flush bits) without the sticky exception flags; 0 on
/// architectures [`FlushGuard`] does not touch. For tests that check a call
/// left the caller's mode as it found it.
pub fn control_word() -> u32 {
    arch::read() & !arch::STATUS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// `x · f` with both operands and the product opaque to the optimizer,
    /// so the multiply happens at run time, between the guard's barriers.
    fn times(x: f32, f: f32) -> f32 {
        black_box(black_box(x) * black_box(f))
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[test]
    fn results_and_inputs_flush_inside_a_guard_only() {
        let subnormal = f32::MIN_POSITIVE / 4.0;
        assert!(subnormal.is_subnormal());
        assert!(!is_flushing(), "test threads start in the default mode");
        assert!(times(f32::MIN_POSITIVE, 0.5).is_subnormal());
        assert_eq!(times(subnormal, 2.0), f32::MIN_POSITIVE / 2.0);
        // Compared by bit pattern, outside the guard: under DAZ a float
        // comparison would itself read a subnormal as zero.
        let (result, input, negative) = {
            let _ftz = FlushGuard::enter();
            assert!(is_flushing());
            (times(f32::MIN_POSITIVE, 0.5), times(subnormal, 2.0), times(-f32::MIN_POSITIVE, 0.5))
        };
        assert_eq!(result.to_bits(), 0, "subnormal result (FTZ)");
        assert_eq!(input.to_bits(), 0, "subnormal input (DAZ)");
        assert_eq!(negative.to_bits(), (-0.0f32).to_bits(), "flushed results keep their sign");
        assert!(!is_flushing());
        assert!(times(f32::MIN_POSITIVE, 0.5).is_subnormal());
    }

    #[test]
    fn drop_restores_the_word_it_found() {
        let before = control_word();
        {
            let _outer = FlushGuard::enter();
            let inside = control_word();
            {
                let _inner = FlushGuard::enter();
                assert_eq!(control_word(), inside, "a nested guard changes nothing");
            }
            assert_eq!(control_word(), inside, "…and restores nothing");
            assert!(is_flushing());
        }
        assert_eq!(control_word(), before);
    }

    #[test]
    fn unwinding_restores_the_word() {
        let before = control_word();
        let caught = std::panic::catch_unwind(|| {
            let _ftz = FlushGuard::enter();
            assert!(is_flushing());
            std::panic::resume_unwind(Box::new("unwind through the guard"));
        });
        assert!(caught.is_err());
        assert_eq!(control_word(), before);
    }

    #[test]
    fn the_mode_is_per_thread() {
        let before = control_word();
        let (child_start, child_inside) = std::thread::spawn(|| {
            let start = control_word();
            let _ftz = FlushGuard::enter();
            (start, control_word())
        })
        .join()
        .expect("child thread");
        assert_eq!(child_start, before, "a thread spawned outside a guard starts un-flushed");
        assert_eq!(child_inside, before | arch::FLUSH);
        assert_eq!(control_word(), before, "the child's guard left this thread alone");
    }
}
