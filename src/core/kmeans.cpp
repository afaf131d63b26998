#include "src/core/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "src/core/signature.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"

namespace bp {

namespace {

/** Weighted k-means++ seeding. */
std::vector<std::vector<double>>
seedCentroids(const std::vector<std::vector<double>> &points,
              const std::vector<double> &weights, unsigned k, Rng &rng)
{
    const size_t n = points.size();
    std::vector<std::vector<double>> centroids;
    centroids.reserve(k);

    // First centroid: weighted random point.
    double total_weight = 0.0;
    for (const double w : weights)
        total_weight += w;
    double pick = rng.nextDouble() * total_weight;
    size_t first = 0;
    for (size_t i = 0; i < n; ++i) {
        pick -= weights[i];
        if (pick <= 0.0) {
            first = i;
            break;
        }
    }
    centroids.push_back(points[first]);

    std::vector<double> min_dist(n, std::numeric_limits<double>::max());
    while (centroids.size() < k) {
        double dist_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            min_dist[i] = std::min(min_dist[i],
                                   squaredDistance(points[i],
                                                   centroids.back()));
            dist_sum += min_dist[i] * weights[i];
        }
        if (dist_sum <= 0.0) {
            // All remaining points coincide with a centroid; duplicate.
            centroids.push_back(points[first]);
            continue;
        }
        double target = rng.nextDouble() * dist_sum;
        size_t chosen = n - 1;
        for (size_t i = 0; i < n; ++i) {
            target -= min_dist[i] * weights[i];
            if (target <= 0.0) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points[chosen]);
    }
    return centroids;
}

/** One full Lloyd run; returns the result for these initial centroids. */
KMeansResult
lloyd(const std::vector<std::vector<double>> &points,
      const std::vector<double> &weights,
      std::vector<std::vector<double>> centroids, unsigned max_iterations,
      ThreadPool *pool)
{
    const size_t n = points.size();
    const unsigned k = static_cast<unsigned>(centroids.size());
    const size_t dim = points[0].size();

    std::vector<unsigned> assignment(n, 0);

    // Assignment step: each point's nearest centroid depends only on
    // immutable snapshot state, and ties break toward the lowest
    // centroid index (strict <) — independent of execution order, so
    // this parallelizes bit-identically. @return true when any
    // assignment moved.
    const auto assignPoints = [&]() {
        std::atomic<bool> changed{false};
        parallelFor(pool, 0, n, [&](uint64_t i) {
            double best = std::numeric_limits<double>::max();
            unsigned best_c = 0;
            for (unsigned c = 0; c < k; ++c) {
                const double d = squaredDistance(points[i], centroids[c]);
                if (d < best) {
                    best = d;
                    best_c = c;
                }
            }
            if (assignment[i] != best_c) {
                assignment[i] = best_c;
                changed.store(true, std::memory_order_relaxed);
            }
        }, 64);
        return changed.load(std::memory_order_relaxed);
    };

    // True when the loop exits converged: the final assignment was
    // made against the current centroids, so scoring them together is
    // consistent.
    bool consistent = false;

    for (unsigned iter = 0; iter < max_iterations; ++iter) {
        if (!assignPoints() && iter > 0) {
            consistent = true;
            break;
        }

        // Recompute weighted centroids.
        std::vector<double> cluster_weight(k, 0.0);
        for (auto &centroid : centroids)
            std::fill(centroid.begin(), centroid.end(), 0.0);
        for (size_t i = 0; i < n; ++i) {
            const unsigned c = assignment[i];
            cluster_weight[c] += weights[i];
            for (size_t d = 0; d < dim; ++d)
                centroids[c][d] += weights[i] * points[i][d];
        }
        for (unsigned c = 0; c < k; ++c) {
            if (cluster_weight[c] > 0.0) {
                for (size_t d = 0; d < dim; ++d)
                    centroids[c][d] /= cluster_weight[c];
            } else {
                // Empty cluster: reseed to the point farthest from its
                // centroid.
                double worst = -1.0;
                size_t worst_i = 0;
                for (size_t i = 0; i < n; ++i) {
                    const double d = squaredDistance(
                        points[i], centroids[assignment[i]]);
                    if (d > worst) {
                        worst = d;
                        worst_i = i;
                    }
                }
                centroids[c] = points[worst_i];
            }
        }
    }

    // Out of iterations: the centroid update ran after the last
    // assignment, so the assignments no longer pair with the
    // centroids. One extra assignment pass restores the invariant the
    // BIC k-sweep relies on: weightedSse always scores assignments
    // against the centroids they were made with.
    if (!consistent)
        assignPoints();

    KMeansResult result;
    result.k = k;
    result.assignment = std::move(assignment);
    result.weightedSse = 0.0;
    for (size_t i = 0; i < n; ++i) {
        result.weightedSse += weights[i] *
            squaredDistance(points[i], centroids[result.assignment[i]]);
    }
    result.centroids = std::move(centroids);
    return result;
}

/** Factor rescaling @p weights to n_points effective samples. */
double
effectiveSampleScale(uint64_t n_points, const std::vector<double> &weights)
{
    double total_weight = 0.0;
    for (const double w : weights)
        total_weight += w;
    BP_ASSERT(total_weight > 0.0, "BIC requires positive total weight");
    return static_cast<double>(n_points) / total_weight;
}

/** The BIC from per-cluster effective counts and the scaled SSE. */
double
bicFromScaled(uint64_t n_points, size_t dim_in,
              const std::vector<double> &cluster_n, double sse)
{
    const double n = static_cast<double>(n_points);
    const double dim = static_cast<double>(dim_in);
    const unsigned k = static_cast<unsigned>(cluster_n.size());

    const double denom = std::max(1.0, n - static_cast<double>(k));
    const double sigma2 = std::max(sse / (dim * denom), 1e-12);

    double log_likelihood = 0.0;
    for (unsigned c = 0; c < k; ++c) {
        if (cluster_n[c] <= 0.0)
            continue;
        log_likelihood += cluster_n[c] * std::log(cluster_n[c] / n);
    }
    log_likelihood -= n * dim / 2.0 * std::log(2.0 * M_PI * sigma2);
    log_likelihood -= dim * (n - k) / 2.0;

    const double params = static_cast<double>(k) * (dim + 1.0);
    return log_likelihood - params / 2.0 * std::log(n);
}

} // namespace

KMeansResult
kmeansCluster(const std::vector<std::vector<double>> &points,
              const std::vector<double> &weights, unsigned k, uint64_t seed,
              unsigned max_iterations, unsigned restarts, ThreadPool *pool)
{
    BP_ASSERT(!points.empty(), "k-means requires points");
    BP_ASSERT(points.size() == weights.size(), "weights/points mismatch");
    BP_ASSERT(k >= 1 && k <= points.size(), "k out of range");

    KMeansResult best;
    best.weightedSse = std::numeric_limits<double>::max();
    for (unsigned r = 0; r < std::max(1u, restarts); ++r) {
        Rng rng(hashMix(seed + r * 0x9E37u + k));
        KMeansResult candidate =
            lloyd(points, weights, seedCentroids(points, weights, k, rng),
                  max_iterations, pool);
        if (candidate.weightedSse < best.weightedSse)
            best = std::move(candidate);
    }
    return best;
}

double
bicScore(const std::vector<std::vector<double>> &points,
         const std::vector<double> &weights, const KMeansResult &result)
{
    const size_t n_points = points.size();
    const double weight_scale = effectiveSampleScale(n_points, weights);

    // Scale each point's weight before accumulating: this order is the
    // batch path's bit-identity pin.
    std::vector<double> cluster_n(result.k, 0.0);
    double sse = 0.0;
    for (size_t i = 0; i < n_points; ++i) {
        const double w = weights[i] * weight_scale;
        cluster_n[result.assignment[i]] += w;
        sse += w * squaredDistance(points[i],
                                   result.centroids[result.assignment[i]]);
    }
    return bicFromScaled(n_points, points[0].size(), cluster_n, sse);
}

ClusteringResult
clusterSignatures(const std::vector<std::vector<double>> &points,
                  const std::vector<double> &weights,
                  const ClusteringConfig &config, ThreadPool *pool)
{
    BP_ASSERT(!points.empty(), "clustering requires points");
    const unsigned max_k =
        std::min<unsigned>(config.maxK,
                           static_cast<unsigned>(points.size()));

    // The k sweep is the coarsest parallel grain: every k is seeded
    // independently, so the runs are order-free and results collect
    // in k order. Inner lloyd() calls detect they are inside the
    // sweep's parallelFor (worker or participating caller) and fall
    // back to serial, so the two levels compose safely; when the
    // sweep is too small to dispatch, the assignment step's own
    // parallelism takes over instead.
    std::vector<KMeansResult> by_k(max_k);
    ClusteringResult out;
    out.bicByK.resize(max_k);
    parallelFor(pool, 0, max_k, [&](uint64_t idx) {
        const unsigned k = static_cast<unsigned>(idx) + 1;
        by_k[idx] = kmeansCluster(points, weights, k, config.seed,
                                  config.maxIterations, config.restarts,
                                  pool);
        out.bicByK[idx] = bicScore(points, weights, by_k[idx]);
    });

    const unsigned chosen = chooseKByBic(out.bicByK, config.bicThreshold);
    out.best = std::move(by_k[chosen - 1]);
    return out;
}

unsigned
chooseKByBic(const std::vector<double> &bic_by_k, double threshold)
{
    BP_ASSERT(!bic_by_k.empty(), "BIC selection requires scores");
    const unsigned max_k = static_cast<unsigned>(bic_by_k.size());

    // SimPoint rule: smallest k whose BIC reaches threshold of the
    // observed score range.
    const double lo = *std::min_element(bic_by_k.begin(), bic_by_k.end());
    const double hi = *std::max_element(bic_by_k.begin(), bic_by_k.end());
    const double range = hi - lo;
    unsigned chosen = max_k;
    for (unsigned k = 1; k <= max_k; ++k) {
        const double score = bic_by_k[k - 1];
        if (range <= 0.0 || (score - lo) >= threshold * range) {
            chosen = k;
            break;
        }
    }
    return chosen;
}

double
bicFromStats(uint64_t n_points, unsigned dim,
             const std::vector<double> &cluster_weight, double weighted_sse)
{
    // Scaling the aggregates instead of each point gives a (tolerably)
    // different rounding than bicScore(), which is fine here: streaming
    // scores are only ever compared with each other.
    const double weight_scale =
        effectiveSampleScale(n_points, cluster_weight);
    std::vector<double> cluster_n(cluster_weight.size());
    for (size_t c = 0; c < cluster_n.size(); ++c)
        cluster_n[c] = cluster_weight[c] * weight_scale;
    return bicFromScaled(n_points, dim, cluster_n,
                         weighted_sse * weight_scale);
}

MiniBatchLloyd::MiniBatchLloyd(std::vector<std::vector<double>> centroids,
                               std::vector<double> initial_weights)
    : centroids_(std::move(centroids)),
      cumulativeWeight_(std::move(initial_weights))
{
    BP_ASSERT(!centroids_.empty(), "mini-batch k-means requires centroids");
    dim_ = static_cast<unsigned>(centroids_[0].size());
    for (const auto &c : centroids_)
        BP_ASSERT(c.size() == dim_, "centroid dimension mismatch");
    if (cumulativeWeight_.empty())
        cumulativeWeight_.assign(centroids_.size(), 0.0);
    BP_ASSERT(cumulativeWeight_.size() == centroids_.size(),
              "initial weights / centroids mismatch");
    batchSum_.assign(centroids_.size() * dim_, 0.0);
    batchWeight_.assign(centroids_.size(), 0.0);
}

unsigned
MiniBatchLloyd::nearest(const double *point, double *dist_out) const
{
    double best = std::numeric_limits<double>::max();
    unsigned best_c = 0;
    for (unsigned c = 0; c < k(); ++c) {
        const double *centroid = centroids_[c].data();
        double d = 0.0;
        for (unsigned i = 0; i < dim_; ++i) {
            const double diff = point[i] - centroid[i];
            d += diff * diff;
        }
        if (d < best) {
            best = d;
            best_c = c;
        }
    }
    if (dist_out)
        *dist_out = best;
    return best_c;
}

void
MiniBatchLloyd::update(const double *points, const double *weights,
                       size_t count)
{
    std::fill(batchSum_.begin(), batchSum_.end(), 0.0);
    std::fill(batchWeight_.begin(), batchWeight_.end(), 0.0);
    for (size_t i = 0; i < count; ++i) {
        const double *point = points + i * dim_;
        const unsigned c = nearest(point);
        const double w = weights[i];
        batchWeight_[c] += w;
        double *sum = batchSum_.data() + c * dim_;
        for (unsigned d = 0; d < dim_; ++d)
            sum[d] += w * point[d];
    }
    for (unsigned c = 0; c < k(); ++c) {
        const double batch_w = batchWeight_[c];
        if (batch_w <= 0.0)
            continue;
        const double total = cumulativeWeight_[c] + batch_w;
        const double eta = batch_w / total;
        const double *sum = batchSum_.data() + c * dim_;
        for (unsigned d = 0; d < dim_; ++d) {
            const double batch_mean = sum[d] / batch_w;
            centroids_[c][d] += eta * (batch_mean - centroids_[c][d]);
        }
        cumulativeWeight_[c] = total;
    }
}

} // namespace bp
