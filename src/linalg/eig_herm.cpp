#include "linalg/eig_herm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hpp"

namespace qbasis {

namespace {

/**
 * One connected block of the Hermitized input: its global indices in
 * ascending order, the dense submatrix over them, and the rotations
 * accumulated on the kept rows of its eigenvector matrix (row k of
 * `v` is local row kept[k]).
 */
struct Block
{
    std::vector<size_t> index;
    std::vector<size_t> kept;
    CMat a;
    CMat v;
};

/**
 * (x, y) <- (c x - conj(s) y, s x + c y), written out in the real
 * operations std::complex performs for finite operands (products
 * (ar br - ai bi, ar bi + ai br), real scalars componentwise), so
 * the same bits come without a NaN-recovery branch per product.
 */
inline void
rotatePair(Complex &x, Complex &y, double c, Complex s)
{
    const double xr = x.real(), xi = x.imag();
    const double yr = y.real(), yi = y.imag();
    const double sr = s.real(), si = s.imag(), nsi = -si;
    x = Complex(c * xr - (sr * yr - nsi * yi),
                c * xi - (sr * yi + nsi * yr));
    y = Complex((sr * xr - si * xi) + c * yr,
                (sr * xi + si * xr) + c * yi);
}

/** One cyclic sweep over the pivots p < q of a block. */
void
sweepBlock(Block &b)
{
    const size_t m = b.index.size();
    CMat &a = b.a;
    CMat &v = b.v;
    for (size_t p = 0; p < m; ++p) {
        for (size_t q = p + 1; q < m; ++q) {
            const Complex apq = a(p, q);
            const double mag = std::abs(apq);
            if (mag <= 1e-300)
                continue;
            const double app = a(p, p).real();
            const double aqq = a(q, q).real();
            // Phase that makes the pivot real, then a real Jacobi
            // rotation on the phased pair.
            const Complex phase = apq / mag;
            const double theta = 0.5 * (aqq - app) / mag;
            const double t =
                (theta >= 0.0 ? 1.0 : -1.0)
                / (std::abs(theta) + std::sqrt(theta * theta + 1.0));
            const double c = 1.0 / std::sqrt(t * t + 1.0);
            const double s = t * c;
            const Complex sp = s * phase;

            // Columns update: A <- A * R
            for (size_t k = 0; k < m; ++k)
                rotatePair(a(k, p), a(k, q), c, sp);
            // Rows update: A <- R^dag * A
            for (size_t k = 0; k < m; ++k)
                rotatePair(a(p, k), a(q, k), c, std::conj(sp));
            for (size_t k = 0; k < v.rows(); ++k)
                rotatePair(v(k, p), v(k, q), c, sp);
        }
    }
}

} // namespace

HermEig
jacobiEigHerm(const CMat &h, double tol)
{
    std::vector<size_t> rows(h.rows());
    std::iota(rows.begin(), rows.end(), size_t{0});
    return jacobiEigHermRows(h, rows, tol);
}

HermEig
jacobiEigHermRows(const CMat &h_in, const std::vector<size_t> &rows,
                  double tol)
{
    const size_t n = h_in.rows();
    if (h_in.cols() != n)
        panic("jacobiEigHerm requires a square matrix");
    for (size_t r : rows)
        if (r >= n)
            panic("jacobiEigHermRows: row %zu of a %zux%zu matrix", r,
                  n, n);

    CMat a(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            a(i, j) = 0.5 * (h_in(i, j) + std::conj(h_in(j, i)));
    const double scale = std::max(a.frobeniusNorm(), 1e-300);

    // Connected components of the pattern a(i, j) != 0, numbered by
    // their smallest index.
    std::vector<size_t> block_of(n, n);
    size_t blocks_found = 0;
    std::vector<size_t> stack;
    for (size_t s = 0; s < n; ++s) {
        if (block_of[s] != n)
            continue;
        block_of[s] = blocks_found;
        stack.push_back(s);
        while (!stack.empty()) {
            const size_t i = stack.back();
            stack.pop_back();
            for (size_t j = 0; j < n; ++j) {
                if (block_of[j] == n && a(i, j) != Complex{}) {
                    block_of[j] = blocks_found;
                    stack.push_back(j);
                }
            }
        }
        ++blocks_found;
    }

    std::vector<Block> blocks(blocks_found);
    std::vector<size_t> local(n);
    for (size_t i = 0; i < n; ++i) {
        Block &b = blocks[block_of[i]];
        local[i] = b.index.size();
        b.index.push_back(i);
    }
    // Output row i is row kept_at[i] of its block's kept rows.
    std::vector<size_t> kept_at(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        Block &b = blocks[block_of[rows[i]]];
        kept_at[i] = b.kept.size();
        b.kept.push_back(local[rows[i]]);
    }
    for (Block &b : blocks) {
        const size_t m = b.index.size();
        b.a = CMat(m, m);
        for (size_t r = 0; r < m; ++r)
            for (size_t c = 0; c < m; ++c)
                b.a(r, c) = a(b.index[r], b.index[c]);
        b.v = CMat(b.kept.size(), m);
        for (size_t k = 0; k < b.kept.size(); ++k)
            b.v(k, b.kept[k]) = Complex(1.0);
    }
    // The off-norm sums the within-block entries above the diagonal
    // in global row-major order; every other entry is +-0.
    std::vector<const Complex *> upper;
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            if (block_of[i] == block_of[j])
                upper.push_back(&blocks[block_of[i]].a(local[i],
                                                       local[j]));

    const int max_sweeps = 100;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        double off = 0.0;
        for (const Complex *x : upper)
            off += std::norm(*x);
        if (std::sqrt(2.0 * off) <= tol * scale)
            break;
        for (Block &b : blocks)
            sweepBlock(b);
    }

    std::vector<double> diag(n);
    for (size_t i = 0; i < n; ++i)
        diag[i] = blocks[block_of[i]].a(local[i], local[i]).real();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
        return diag[i] < diag[j];
    });

    HermEig out;
    out.values.resize(n);
    out.vectors = CMat(rows.size(), n);
    for (size_t c = 0; c < n; ++c) {
        const size_t k = order[c];
        const Block &b = blocks[block_of[k]];
        out.values[c] = diag[k];
        for (size_t i = 0; i < rows.size(); ++i)
            if (block_of[rows[i]] == block_of[k])
                out.vectors(i, c) = b.v(kept_at[i], local[k]);
    }
    return out;
}

} // namespace qbasis
