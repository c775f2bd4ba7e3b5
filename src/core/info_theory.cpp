#include "core/info_theory.hpp"

#include <algorithm>
#include <cmath>
#include <math.h>  // lgamma_r
#include <vector>

#include "util/error.hpp"

namespace wfbn {

double entropy(const MarginalTable& table) {
  const double m = static_cast<double>(table.total());
  if (m == 0.0) return 0.0;
  double h = 0.0;
  for (const std::uint64_t c : table.raw_counts()) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / m;
    h -= p * std::log(p);
  }
  return h;
}

double mutual_information(const MarginalTable& joint_xy) {
  WFBN_EXPECT(joint_xy.variables().size() == 2,
              "mutual_information expects a pair table");
  const std::size_t x = joint_xy.variables()[0];
  const std::size_t y = joint_xy.variables()[1];
  // I(X;Y) = H(X) + H(Y) − H(X,Y); marginals derived from the pair table.
  const std::size_t keep_x[] = {x};
  const std::size_t keep_y[] = {y};
  const double h_x = entropy(joint_xy.sum_out_to(keep_x));
  const double h_y = entropy(joint_xy.sum_out_to(keep_y));
  const double h_xy = entropy(joint_xy);
  return std::max(0.0, h_x + h_y - h_xy);
}

double conditional_mutual_information(const MarginalTable& joint,
                                      std::size_t x, std::size_t y) {
  const auto& vars = joint.variables();
  WFBN_EXPECT(vars.size() >= 2, "joint table must contain x, y");
  WFBN_EXPECT(std::find(vars.begin(), vars.end(), x) != vars.end(),
              "x not in joint table");
  WFBN_EXPECT(std::find(vars.begin(), vars.end(), y) != vars.end(),
              "y not in joint table");
  WFBN_EXPECT(x != y, "x and y must differ");

  if (vars.size() == 2) return mutual_information(joint.sum_out_to(vars));

  // Z = table variables minus {x, y}.
  std::vector<std::size_t> z;
  for (const std::size_t v : vars) {
    if (v != x && v != y) z.push_back(v);
  }
  std::vector<std::size_t> xz = z;
  xz.push_back(x);
  std::vector<std::size_t> yz = z;
  yz.push_back(y);

  // I(X;Y|Z) = H(X,Z) + H(Y,Z) − H(X,Y,Z) − H(Z).
  const double h_xz = entropy(joint.sum_out_to(xz));
  const double h_yz = entropy(joint.sum_out_to(yz));
  const double h_xyz = entropy(joint);
  const double h_z = entropy(joint.sum_out_to(z));
  return std::max(0.0, h_xz + h_yz - h_xyz - h_z);
}

GTestResult g_test(const MarginalTable& joint, std::size_t x, std::size_t y) {
  GTestResult result;
  const double m = static_cast<double>(joint.total());
  result.g = 2.0 * m * conditional_mutual_information(joint, x, y);

  std::uint64_t dof = 1;
  std::uint32_t r_x = 0;
  std::uint32_t r_y = 0;
  for (std::size_t i = 0; i < joint.variables().size(); ++i) {
    const std::size_t v = joint.variables()[i];
    const std::uint32_t r = joint.cardinalities()[i];
    if (v == x) {
      r_x = r;
    } else if (v == y) {
      r_y = r;
    } else {
      dof *= r;
    }
  }
  WFBN_EXPECT(r_x > 0 && r_y > 0, "x or y missing from joint table");
  dof *= static_cast<std::uint64_t>(std::max(1u, r_x - 1)) *
         static_cast<std::uint64_t>(std::max(1u, r_y - 1));
  result.dof = dof;
  result.p_value = chi_squared_sf(result.g, static_cast<double>(dof));
  return result;
}

namespace {

// log Γ(a) without touching glibc's global `signgam`, which std::lgamma
// writes: CI tests evaluate p-values on several pool workers at once.
// lgamma_r computes the same value with the same routine.
double log_gamma(double a) {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

// Regularized lower incomplete gamma by its power series; converges fast for
// x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < 1000; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Regularized upper incomplete gamma by Lentz's continued fraction; converges
// fast for x >= a + 1.
double gamma_q_cf(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 1000; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-15) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  WFBN_EXPECT(a > 0.0, "gamma shape must be positive");
  WFBN_EXPECT(x >= 0.0, "gamma argument must be non-negative");
  if (x == 0.0) return 0.0;
  return (x < a + 1.0) ? gamma_p_series(a, x) : 1.0 - gamma_q_cf(a, x);
}

double regularized_gamma_q(double a, double x) {
  WFBN_EXPECT(a > 0.0, "gamma shape must be positive");
  WFBN_EXPECT(x >= 0.0, "gamma argument must be non-negative");
  if (x == 0.0) return 1.0;
  return (x < a + 1.0) ? 1.0 - gamma_p_series(a, x) : gamma_q_cf(a, x);
}

double chi_squared_sf(double x, double dof) {
  WFBN_EXPECT(dof > 0.0, "chi-squared needs dof > 0");
  if (x <= 0.0) return 1.0;
  return regularized_gamma_q(dof / 2.0, x / 2.0);
}

}  // namespace wfbn
