#pragma once
// TDA_SIMD_LOOP: a portable vectorization hint for loops whose
// iterations are independent (the interleaved strip loops and the
// unit-stride PCR interior). The loops are correct without it; it only
// helps the vectorizer past the aliasing analysis (the a/b/c/d arrays
// often come from one slab). Place it directly before the `for`.

#if defined(__clang__)
#define TDA_SIMD_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define TDA_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define TDA_SIMD_LOOP
#endif
