/**
 * @file
 * relief_kernel_bench — the functional-kernel microbenchmark.
 *
 * Times every row primitive of the SIMD kernel engine
 * (kernels/simd/simd.hh) under the scalar backend and under the
 * active (widest supported, or --kernel-isa forced) backend on
 * cache-resident images, verifies the two produce bit-identical
 * output, and writes one machine-readable JSON document
 * ("relief-kernels-v1") with per-kernel throughput and speedups plus
 * the geometric-mean speedup. CI's kernel-bench job consumes the
 * file; the schema is validated by scripts/check_bench_schema.py and
 * diffable against a baseline with relief_compare --diff (repeat
 * lists, per-metric medians, time-like throughputs with floors).
 *
 * Examples:
 *
 *   relief_kernel_bench                      # -> KERNELS_relief.json
 *   relief_kernel_bench --smoke --out k.json # tiny image, short reps
 *   relief_kernel_bench --kernel-isa sse4.2  # force the SIMD side
 *
 * Flags:
 *   --out FILE        output path (default KERNELS_relief.json)
 *   --kernel-isa NAME SIMD backend to measure (default: widest
 *                     supported; "scalar" measures scalar vs scalar)
 *   --smoke           small image and short timing windows for CI
 *   --reps N          minimum timed repetitions per kernel (default 8)
 *   --min-ms X        minimum timed window per kernel in host ms
 *                     (default 20, smoke 2)
 *
 * Exit status: 0 on success, 1 on a bit-identity mismatch between the
 * scalar and SIMD backends (the contract simd_test.cc enforces per
 * shape; here it is re-checked on the benchmark images).
 */

#include <algorithm>
#include <climits>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "kernels/filters.hh"
#include "kernels/simd/simd.hh"
#include "sim/build_info.hh"
#include "sim/logging.hh"
#include "stats/json.hh"
#include "stats/table.hh"

using namespace relief;

namespace
{

/** One measured kernel: a closure running the op once over the whole
 *  image with a given backend, plus its reporting metadata. */
struct KernelCase
{
    std::string name;
    std::string unit;     ///< "MPix/s" (2-D) or "Melem/s" (flat).
    /** Run the kernel once with @p ops, writing into @p out. */
    void (*run)(const KernelOps &ops, const std::vector<float> &in,
                const std::vector<float> &in2, int w, int h,
                std::vector<float> &out);
};

/** Deterministic pseudo-image in [0, 1) plus a few exact zeros and
 *  negatives so the guarded ops (Div, Sqrt) exercise both sides of
 *  their masks. */
std::vector<float>
makeInput(std::size_t n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-0.25f, 1.0f);
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = dist(rng);
    for (std::size_t i = 0; i < n; i += 97)
        v[i] = 0.0f;
    return v;
}

/** Clamped row pointers r[y-half] .. r[y+half] for a conv/NMS row. */
inline void
clampedRows(const float *base, int w, int h, int y, int half,
            const float **rows)
{
    for (int fy = -half; fy <= half; ++fy) {
        int yy = std::clamp(y + fy, 0, h - 1);
        rows[fy + half] = base + std::size_t(yy) * w;
    }
}

void
runConv(const KernelOps &ops, const std::vector<float> &in,
        const std::vector<float> &, int w, int h,
        std::vector<float> &out, const Filter2D &filter)
{
    int half = filter.size() / 2;
    const float *rows[7];
    RELIEF_ASSERT(filter.size() <= 7, "bench conv filter too large");
    for (int y = 0; y < h; ++y) {
        clampedRows(in.data(), w, h, y, half, rows);
        ops.convRow(rows, w, filter.taps(), filter.size(),
                    out.data() + std::size_t(y) * w);
    }
}

void
runConv3(const KernelOps &ops, const std::vector<float> &in,
         const std::vector<float> &in2, int w, int h,
         std::vector<float> &out)
{
    static const Filter2D filter = sobelX();
    runConv(ops, in, in2, w, h, out, filter);
}

void
runConv5(const KernelOps &ops, const std::vector<float> &in,
         const std::vector<float> &in2, int w, int h,
         std::vector<float> &out)
{
    static const Filter2D filter = gaussianFilter(5);
    runConv(ops, in, in2, w, h, out, filter);
}

void
runSepConv5(const KernelOps &ops, const std::vector<float> &in,
            const std::vector<float> &, int w, int h,
            std::vector<float> &out)
{
    static const std::vector<float> taps = gaussianTaps1d(5);
    static std::vector<float> tmp;
    tmp.resize(in.size());
    for (int y = 0; y < h; ++y)
        ops.sepConvRowH(in.data() + std::size_t(y) * w, w, taps.data(),
                        int(taps.size()),
                        tmp.data() + std::size_t(y) * w);
    int half = int(taps.size()) / 2;
    const float *rows[7];
    for (int y = 0; y < h; ++y) {
        clampedRows(tmp.data(), w, h, y, half, rows);
        ops.sepConvRowV(rows, w, taps.data(), int(taps.size()),
                        out.data() + std::size_t(y) * w);
    }
}

void
runCannyNms(const KernelOps &ops, const std::vector<float> &in,
            const std::vector<float> &in2, int w, int h,
            std::vector<float> &out)
{
    const float *rows[3];
    for (int y = 0; y < h; ++y) {
        clampedRows(in.data(), w, h, y, 1, rows);
        ops.cannyNmsRow(rows, in2.data() + std::size_t(y) * w, w,
                        out.data() + std::size_t(y) * w);
    }
}

void
runHarrisNms(const KernelOps &ops, const std::vector<float> &in,
             const std::vector<float> &, int w, int h,
             std::vector<float> &out)
{
    const float *rows[3];
    for (int y = 0; y < h; ++y) {
        clampedRows(in.data(), w, h, y, 1, rows);
        ops.harrisNmsRow(rows, w, out.data() + std::size_t(y) * w);
    }
}

void
runBt601(const KernelOps &ops, const std::vector<float> &in,
         const std::vector<float> &in2, int w, int h,
         std::vector<float> &out)
{
    std::size_t n = std::size_t(w) * h;
    ops.bt601(in.data(), in2.data(), in.data(), out.data(), n);
}

void
runCcmClamp(const KernelOps &ops, const std::vector<float> &in,
            const std::vector<float> &in2, int w, int h,
            std::vector<float> &out)
{
    static const float ccm[3][3] = {{1.7f, -0.5f, -0.2f},
                                    {-0.3f, 1.6f, -0.3f},
                                    {-0.2f, -0.5f, 1.7f}};
    std::size_t n = std::size_t(w) * h;
    // ccmClamp is in place: stage the three channels into out-adjacent
    // scratch so every rep sees the same input bits.
    static std::vector<float> r, g, b;
    r.assign(in.begin(), in.begin() + long(n));
    g.assign(in2.begin(), in2.begin() + long(n));
    b.assign(in.begin(), in.begin() + long(n));
    ops.ccmClamp(r.data(), g.data(), b.data(), n, ccm);
    std::memcpy(out.data(), r.data(), n * sizeof(float));
}

template <ElemOp op>
void
runElem(const KernelOps &ops, const std::vector<float> &in,
        const std::vector<float> &in2, int w, int h,
        std::vector<float> &out)
{
    std::size_t n = std::size_t(w) * h;
    ops.elemRow(op, in.data(), in2.data(), 0.5f, out.data(), n);
}

void
runGradMag(const KernelOps &ops, const std::vector<float> &in,
           const std::vector<float> &in2, int w, int h,
           std::vector<float> &out)
{
    std::size_t n = std::size_t(w) * h;
    ops.gradMag(in.data(), in2.data(), out.data(), n);
}

void
runRnnGatePre(const KernelOps &ops, const std::vector<float> &in,
              const std::vector<float> &in2, int w, int h,
              std::vector<float> &out)
{
    std::size_t n = std::size_t(w) * h;
    ops.rnnGatePre(in.data(), in2.data(), in2.data(), in.data(),
                   in2.data(), out.data(), n);
}

const KernelCase kernelCases[] = {
    {"conv3x3", "MPix/s", runConv3},
    {"conv5x5", "MPix/s", runConv5},
    {"sep_conv5", "MPix/s", runSepConv5},
    {"canny_nms", "MPix/s", runCannyNms},
    {"harris_nms", "MPix/s", runHarrisNms},
    {"bt601", "MPix/s", runBt601},
    {"ccm_clamp", "MPix/s", runCcmClamp},
    {"grad_mag", "Melem/s", runGradMag},
    {"elem_add", "Melem/s", runElem<ElemOp::Add>},
    {"elem_mul", "Melem/s", runElem<ElemOp::Mul>},
    {"elem_div", "Melem/s", runElem<ElemOp::Div>},
    {"elem_sqrt", "Melem/s", runElem<ElemOp::Sqrt>},
    {"elem_scale", "Melem/s", runElem<ElemOp::Scale>},
    {"rnn_gate_pre", "Melem/s", runRnnGatePre},
};

struct CaseResult
{
    std::string name;
    std::string unit;
    int reps = 0;
    double scalarRate = 0.0; ///< M units per second, scalar backend.
    double simdRate = 0.0;   ///< M units per second, SIMD backend.
    bool identical = false;

    double speedup() const
    {
        return scalarRate > 0.0 ? simdRate / scalarRate : 0.0;
    }
};

/** Best-of-reps throughput of @p kernel with @p ops, timed until both
 *  @p min_reps and @p min_ms are reached. */
double
measure(const KernelCase &kernel, const KernelOps &ops,
        const std::vector<float> &in, const std::vector<float> &in2,
        int w, int h, std::vector<float> &out, int min_reps,
        double min_ms, int *reps_out)
{
    using clock = std::chrono::steady_clock;
    double best_s = 1e30;
    double total_s = 0.0;
    int reps = 0;
    while (reps < min_reps || total_s * 1e3 < min_ms) {
        auto start = clock::now();
        kernel.run(ops, in, in2, w, h, out);
        double s =
            std::chrono::duration<double>(clock::now() - start).count();
        best_s = std::min(best_s, s);
        total_s += s;
        ++reps;
        if (reps > 100000) // degenerate clock: bail out
            break;
    }
    if (reps_out)
        *reps_out = reps;
    double work = double(w) * double(h);
    return best_s > 0.0 ? work / best_s / 1e6 : 0.0;
}

void
writeKernelsJson(std::ostream &os, const std::vector<CaseResult> &runs,
                 KernelIsa isa, int lane_width, bool smoke, int w,
                 int h, double geomean)
{
    os << "{\n  \"schema\": \"relief-kernels-v1\",\n"
       << "  \"build_info\": ";
    writeBuildInfoJson(os, 2);
    os << ",\n"
       << "  \"isa\": \"" << kernelIsaName(isa) << "\",\n"
       << "  \"lane_width\": " << lane_width << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"width\": " << w << ",\n"
       << "  \"height\": " << h << ",\n"
       << "  \"runs\": [";
    bool first = true;
    for (const CaseResult &run : runs) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    {\n"
           << "      \"kernel\": \"" << jsonEscape(run.name) << "\",\n"
           << "      \"unit\": \"" << run.unit << "\",\n"
           << "      \"reps\": " << run.reps << ",\n"
           << "      \"scalar\": " << jsonNumber(run.scalarRate)
           << ",\n"
           << "      \"simd\": " << jsonNumber(run.simdRate) << ",\n"
           << "      \"speedup\": " << jsonNumber(run.speedup())
           << ",\n"
           << "      \"identical\": "
           << (run.identical ? "true" : "false") << "\n    }";
    }
    os << "\n  ],\n"
       << "  \"geomean_speedup\": " << jsonNumber(geomean) << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "KERNELS_relief.json";
    bool smoke = false;
    int min_reps = 8;
    double min_ms = -1.0; // default depends on --smoke

    // fatal() prints its own message; a flag error just exits 1.
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto need_value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("flag ", arg, " needs a value");
                return argv[++i];
            };
            if (arg == "--out") {
                out_path = need_value();
            } else if (arg == "--smoke") {
                smoke = true;
            } else if (arg == "--kernel-isa") {
                setKernelIsa(kernelIsaFromName(need_value()));
            } else if (arg == "--reps") {
                min_reps = int(parseCountFlag(arg, need_value(), INT_MAX));
                if (min_reps < 1)
                    fatal("--reps needs a positive count");
            } else if (arg == "--min-ms") {
                min_ms = parseNumberFlag(arg, need_value());
                if (min_ms <= 0.0)
                    fatal("--min-ms needs a positive value");
            } else if (arg == "--help" || arg == "-h") {
                std::cout << "usage: relief_kernel_bench [--out FILE] "
                             "[--kernel-isa NAME] [--smoke] [--reps N] "
                             "[--min-ms X]\n";
                return 0;
            } else {
                fatal("unknown flag '", arg, "'");
            }
        }
    } catch (const FatalError &) {
        return 1;
    }
    if (min_ms <= 0.0)
        min_ms = smoke ? 2.0 : 20.0;

    // Cache-resident working set: measure ALU throughput, not DRAM.
    int w = smoke ? 96 : 320;
    int h = smoke ? 64 : 180;
    std::size_t n = std::size_t(w) * h;

    const KernelOps &simd = kernelOps(); // resolves the active ISA
    const KernelOps &scalar = kernelOpsFor(KernelIsa::Scalar);
    std::cout << "kernel bench: " << w << "x" << h << ", scalar vs "
              << kernelIsaName(simd.isa) << " (" << simd.laneWidth
              << " lanes)\n";

    std::vector<float> in = makeInput(n, 1);
    std::vector<float> in2 = makeInput(n, 2);
    // canny_nms consumes a direction plane: fill in2's alias role with
    // angles spanning all four quantization classes.
    std::vector<float> dir(n);
    for (std::size_t i = 0; i < n; ++i)
        dir[i] = float(M_PI) * (float(i % 360) / 180.0f - 1.0f);

    std::vector<float> out_scalar(n), out_simd(n);
    std::vector<CaseResult> results;
    double log_sum = 0.0;
    int mismatches = 0;
    for (const KernelCase &kernel : kernelCases) {
        const std::vector<float> &second =
            kernel.name == "canny_nms" ? dir : in2;
        CaseResult r;
        r.name = kernel.name;
        r.unit = kernel.unit;
        r.scalarRate = measure(kernel, scalar, in, second, w, h,
                               out_scalar, min_reps, min_ms, nullptr);
        r.simdRate = measure(kernel, simd, in, second, w, h, out_simd,
                             min_reps, min_ms, &r.reps);
        r.identical = std::memcmp(out_scalar.data(), out_simd.data(),
                                  n * sizeof(float)) == 0;
        if (!r.identical) {
            ++mismatches;
            std::cerr << "BIT-IDENTITY VIOLATION: " << kernel.name
                      << " differs between scalar and "
                      << kernelIsaName(simd.isa) << "\n";
        }
        log_sum += std::log(std::max(r.speedup(), 1e-12));
        results.push_back(r);
        std::cout << "  " << kernel.name << ": "
                  << Table::num(r.scalarRate, 1) << " -> "
                  << Table::num(r.simdRate, 1) << " " << kernel.unit
                  << " (" << Table::num(r.speedup(), 2) << "x, "
                  << (r.identical ? "bit-identical" : "MISMATCH")
                  << ")\n";
    }
    double geomean = std::exp(log_sum / double(std::size(kernelCases)));
    std::cout << "geomean speedup: " << Table::num(geomean, 2)
              << "x\n";

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    writeKernelsJson(out, results, simd.isa, simd.laneWidth, smoke, w,
                     h, geomean);
    std::cout << "KERNELS JSON written to " << out_path << "\n";
    return mismatches > 0 ? 1 : 0;
}
