/**
 * @file
 * The scalar kernel table: the portable semantic reference every SIMD
 * target is differentially held to (tests/test_kernels.cpp).
 *
 * These loops mirror ir::executeIr / ExecutablePlan's interpreter
 * semantics term for term — product, renormalizing shift, product
 * clamp, accumulate clamp, in that order per row — so "bit-identical
 * to scalar" and "bit-identical to the interpreter" are the same
 * statement. They are also what the dispatcher patches into any ISA
 * table's null entries, so a partial SIMD target degrades to this, not
 * to undefined behavior.
 */
#include <algorithm>

#include "kernels/kernel_api.hpp"

namespace homunculus::kernels {

namespace {

void
denseI32Scalar(const DenseI32Args &args)
{
    constexpr std::size_t kLanes = kDenseLanes32;
    for (std::size_t out = 0; out < args.outputDim; ++out) {
        const std::int16_t *w = args.weightsT + out * args.inputDim;
        std::int32_t acc[kLanes];
        for (std::size_t lane = 0; lane < kLanes; ++lane)
            acc[lane] = args.biases[out];
        for (std::size_t in = 0; in < args.inputDim; ++in) {
            const std::int32_t weight = w[in];
            const std::int32_t *iv = args.input + in * kLanes;
            for (std::size_t lane = 0; lane < kLanes; ++lane) {
                std::int32_t product =
                    (iv[lane] * weight) >> args.fracBits;
                product = std::min(std::max(product, args.rawMin),
                                   args.rawMax);
                std::int32_t sum = acc[lane] + product;
                acc[lane] = std::min(std::max(sum, args.rawMin),
                                     args.rawMax);
            }
        }
        std::int32_t *ov = args.output + out * kLanes;
        if (args.clampAct) {
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                ov[lane] = std::min(std::max(acc[lane], args.actLo),
                                    args.actHi);
        } else {
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                ov[lane] = acc[lane];
        }
    }
}

void
denseI16Scalar(const DenseI16Args &args)
{
    // All-int16 arithmetic; exact for <= 8-bit formats (|input|,
    // |weight| <= 2^7 so products stay <= 2^14 and post-clamp sums
    // stay within [-256, 255] — no int16 step can overflow).
    constexpr std::size_t kLanes = kDenseLanes16;
    for (std::size_t out = 0; out < args.outputDim; ++out) {
        const std::int8_t *w = args.weightsT + out * args.inputDim;
        std::int16_t acc[kLanes];
        for (std::size_t lane = 0; lane < kLanes; ++lane)
            acc[lane] = args.biases[out];
        for (std::size_t in = 0; in < args.inputDim; ++in) {
            const std::int16_t weight = w[in];
            const std::int16_t *iv = args.input + in * kLanes;
            for (std::size_t lane = 0; lane < kLanes; ++lane) {
                auto product = static_cast<std::int16_t>(
                    static_cast<std::int16_t>(iv[lane] * weight) >>
                    args.fracBits);
                product = std::min(std::max(product, args.rawMin),
                                   args.rawMax);
                auto sum = static_cast<std::int16_t>(acc[lane] + product);
                acc[lane] = std::min(std::max(sum, args.rawMin),
                                     args.rawMax);
            }
        }
        std::int16_t *ov = args.output + out * kLanes;
        if (args.clampAct) {
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                ov[lane] = std::min(std::max(acc[lane], args.actLo),
                                    args.actHi);
        } else {
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                ov[lane] = acc[lane];
        }
    }
}

void
argmaxI32Scalar(const std::int32_t *scores, std::size_t classes,
                int *labels)
{
    constexpr std::size_t kLanes = kDenseLanes32;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (scores[c * kLanes + lane] > scores[best * kLanes + lane])
                best = c;
        labels[lane] = static_cast<int>(best);
    }
}

void
argmaxI16Scalar(const std::int16_t *scores, std::size_t classes,
                int *labels)
{
    constexpr std::size_t kLanes = kDenseLanes16;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (scores[c * kLanes + lane] > scores[best * kLanes + lane])
                best = c;
        labels[lane] = static_cast<int>(best);
    }
}

std::int64_t
squaredDistScalar(const std::int32_t *q, const std::int32_t *centroid,
                  std::size_t n)
{
    std::int64_t dist = 0;
    for (std::size_t f = 0; f < n; ++f) {
        std::int64_t d = static_cast<std::int64_t>(q[f]) - centroid[f];
        dist += d * d;
    }
    return dist;
}

int
kmeansArgminScalar(const std::int32_t *q, const std::int32_t *centroids,
                   std::size_t k, std::size_t n)
{
    std::int64_t best_dist = 0;
    int best = 0;
    const std::int32_t *centroid = centroids;
    for (std::size_t c = 0; c < k; ++c) {
        std::int64_t dist = squaredDistScalar(q, centroid, n);
        if (c == 0 || dist < best_dist) {
            best_dist = dist;
            best = static_cast<int>(c);
        }
        centroid += n;
    }
    return best;
}

int
svmArgmaxNarrowScalar(const std::int32_t *q, const std::int32_t *weights,
                      const std::int64_t *biases, std::size_t classes,
                      std::size_t n, int frac_bits, std::int32_t raw_min,
                      std::int32_t raw_max)
{
    std::int64_t best_score = 0;
    int best = 0;
    const std::int32_t *w = weights;
    for (std::size_t c = 0; c < classes; ++c) {
        std::int64_t score = biases[c];
        for (std::size_t f = 0; f < n; ++f) {
            // Narrow contract: |q|, |w| <= 2^15, so the product fits
            // int32 exactly and the clamp runs in int32 lanes.
            std::int32_t product = (q[f] * w[f]) >> frac_bits;
            product = std::min(std::max(product, raw_min), raw_max);
            score += product;
        }
        if (c == 0 || score > best_score) {
            best_score = score;
            best = static_cast<int>(c);
        }
        w += n;
    }
    return best;
}

void
rangeLowerBoundScalar(const std::int32_t *keys, std::size_t count,
                      const std::int32_t *ordered_hi, std::size_t n,
                      std::uint32_t *out)
{
    for (std::size_t i = 0; i < count; ++i) {
        const std::int32_t *it =
            std::lower_bound(ordered_hi, ordered_hi + n, keys[i]);
        out[i] = static_cast<std::uint32_t>(it - ordered_hi);
    }
}

}  // namespace

const KernelOps *
scalarOps()
{
    static const KernelOps ops = [] {
        KernelOps table;
        table.target = KernelTarget::kScalar;
        table.name = "scalar";
        table.denseI32 = denseI32Scalar;
        table.denseI16 = denseI16Scalar;
        table.argmaxI32 = argmaxI32Scalar;
        table.argmaxI16 = argmaxI16Scalar;
        table.squaredDist = squaredDistScalar;
        table.kmeansArgmin = kmeansArgminScalar;
        table.svmArgmaxNarrow = svmArgmaxNarrowScalar;
        table.rangeLowerBound = rangeLowerBoundScalar;
        return table;
    }();
    return &ops;
}

}  // namespace homunculus::kernels
