//! Run-time SIMD dispatch for the workspace's float kernels.
//!
//! A kernel is written once, as portable Rust over fixed-width lane
//! arrays, and implements [`SimdKernel`]. [`dispatch`] runs it through
//! an entry compiled for the widest instruction set the CPU has:
//! AVX-512F, AVX2, or the target's baseline. The kernel body is inlined
//! into each entry, so LLVM vectorizes the same source for 16-, 8- or
//! 4-wide registers.
//!
//! Widening lanes never changes a result. Every lane still performs one
//! IEEE multiply and one IEEE add per term, in the source's order: Rust
//! never contracts `a * b + c` into an FMA and never reassociates float
//! adds, and neither feature set changes how a single `f32` operation
//! rounds. The same source therefore gives the same bits on every path,
//! which the kernels' tests check by calling each [`SimdLevel`] the host
//! supports.

/// A float kernel compiled once per [`SimdLevel`].
///
/// Implementations must mark [`SimdKernel::run`] `#[inline(always)]`:
/// only a body inlined into a dispatch entry is compiled with that
/// entry's target features.
pub trait SimdKernel {
    type Output;
    fn run(self) -> Self::Output;
}

/// An instruction-set level a [`SimdKernel`] can be compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The compilation target's baseline (SSE2 on x86-64).
    Portable,
    /// x86-64 AVX2: 8-wide `f32` vectors.
    Avx2,
    /// x86-64 AVX-512F: 16-wide `f32` vectors.
    Avx512,
}

impl SimdLevel {
    /// Every level, narrowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Whether the running CPU can execute this level.
    pub fn supported(self) -> bool {
        match self {
            SimdLevel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 | SimdLevel::Avx512 => false,
        }
    }

    /// The widest level the running CPU supports. The feature checks
    /// read a cached word after the first call.
    pub fn detect() -> SimdLevel {
        if SimdLevel::Avx512.supported() {
            SimdLevel::Avx512
        } else if SimdLevel::Avx2.supported() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Portable
        }
    }

    /// Runs `kernel` compiled for this level.
    ///
    /// # Panics
    /// If the running CPU does not support this level.
    pub fn run<K: SimdKernel>(self, kernel: K) -> K::Output {
        assert!(self.supported(), "{self:?} is not supported by this CPU");
        match self {
            SimdLevel::Portable => kernel.run(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported()` confirmed AVX-512F just above.
            SimdLevel::Avx512 => unsafe { run_avx512(kernel) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported()` confirmed AVX2 just above.
            SimdLevel::Avx2 => unsafe { run_avx2(kernel) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 | SimdLevel::Avx512 => unreachable!(),
        }
    }
}

/// Runs `kernel` compiled for the widest level this CPU supports.
#[inline]
pub fn dispatch<K: SimdKernel>(kernel: K) -> K::Output {
    SimdLevel::detect().run(kernel)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: SimdKernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: SimdKernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scale<'a>(&'a mut [f32], f32);

    impl SimdKernel for Scale<'_> {
        type Output = f32;
        #[inline(always)]
        fn run(self) -> f32 {
            self.0.iter_mut().for_each(|x| *x *= self.1);
            self.0.iter().sum()
        }
    }

    #[test]
    fn every_supported_level_gives_the_same_bits() {
        let base: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut want = base.clone();
        let want_sum = dispatch(Scale(&mut want, 1.3));
        for level in SimdLevel::ALL.into_iter().filter(|l| l.supported()) {
            let mut got = base.clone();
            let sum = level.run(Scale(&mut got, 1.3));
            assert_eq!(sum.to_bits(), want_sum.to_bits(), "{level:?}");
            assert_eq!(got, want, "{level:?}");
        }
        assert!(SimdLevel::Portable.supported());
        assert!(SimdLevel::detect().supported());
    }
}
