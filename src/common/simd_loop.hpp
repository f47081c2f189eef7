#pragma once
// TDA_SIMD_LOOP: a portable vectorization hint for loops whose
// iterations are independent (the interleaved strip loops and the
// unit-stride PCR interior). The loops are correct without it; it only
// helps the vectorizer past the aliasing analysis (the a/b/c/d arrays
// often come from one slab). Place it directly before the `for`.
//
// TDA_FP_CONTRACT_OFF: keeps a*b+c as a rounded multiply and a rounded
// add in the enclosing function body, so an FMA-capable target cannot
// change the bits. Place it first in the body. Clang honours the pragma
// through inlining; GCC has no statement-level form, so GCC builds get
// -ffp-contract=off from the build and the ISA variants of
// tridiag/isa.cpp carry it as a function attribute.
//
// TDA_FOLD_BARRIER(e): the value of e, kept as its own operation so the
// compiler does not merge it with the operations around it. tridiag/
// pcr.hpp wraps the double product of two widened floats in it, which
// GCC and clang would otherwise fold, together with the narrowing, back
// into a float multiply. GCC spells it __builtin_assoc_barrier, clang on
// x86 __arithmetic_fence; elsewhere it is e itself, with the same value.

#if defined(__clang__)
#define TDA_SIMD_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#define TDA_FP_CONTRACT_OFF _Pragma("clang fp contract(off)")
#elif defined(__GNUC__)
#define TDA_SIMD_LOOP _Pragma("GCC ivdep")
#define TDA_FP_CONTRACT_OFF
#else
#define TDA_SIMD_LOOP
#define TDA_FP_CONTRACT_OFF
#endif

#if defined(__has_builtin)
#if __has_builtin(__arithmetic_fence) && \
    (defined(__x86_64__) || defined(__i386__))
#define TDA_FOLD_BARRIER(e) __arithmetic_fence(e)
#elif __has_builtin(__builtin_assoc_barrier)
#define TDA_FOLD_BARRIER(e) __builtin_assoc_barrier(e)
#endif
#endif
#ifndef TDA_FOLD_BARRIER
#define TDA_FOLD_BARRIER(e) (e)
#endif
