#include "synth/profile.hpp"

#include <cmath>
#include <stdexcept>

namespace webcache::synth {

using trace::DocumentClass;

namespace {

constexpr double kKB = 1024.0;
constexpr double kMB = 1024.0 * 1024.0;

void check(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("WorkloadProfile: " + what);
}

}  // namespace

WorkloadProfile WorkloadProfile::scaled(double scale) const {
  check(scale > 0.0, "scale must be > 0");
  WorkloadProfile out = *this;
  out.distinct_documents = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(distinct_documents) * scale));
  out.total_requests = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(total_requests) * scale));
  return out;
}

void WorkloadProfile::validate() const {
  check(distinct_documents > 0, "distinct_documents must be > 0");
  check(total_requests > 0, "total_requests must be > 0");
  check(mean_interarrival_ms > 0.0, "mean_interarrival_ms must be > 0");

  double distinct_sum = 0.0;
  double request_sum = 0.0;
  for (const ClassProfile& c : classes) {
    distinct_sum += c.distinct_fraction;
    request_sum += c.request_fraction;
    const std::string cls(trace::to_string(c.doc_class));
    check(c.distinct_fraction >= 0.0, cls + ": negative distinct fraction");
    check(c.request_fraction >= 0.0, cls + ": negative request fraction");
    if (c.distinct_fraction == 0.0) continue;
    check(c.size_median_bytes > 0.0, cls + ": median size must be > 0");
    check(c.size_mean_bytes >= c.size_median_bytes,
          cls + ": mean size must be >= median");
    check(c.alpha >= 0.0 && c.alpha <= 2.0, cls + ": alpha out of range");
    check(c.beta >= 0.0 && c.beta <= 3.0, cls + ": beta out of range");
    check(c.correlation_probability >= 0.0 && c.correlation_probability < 1.0,
          cls + ": correlation probability out of [0, 1)");
    check(c.modification_probability >= 0.0 && c.modification_probability < 1.0,
          cls + ": modification probability out of [0, 1)");
    check(c.interrupt_probability >= 0.0 && c.interrupt_probability < 1.0,
          cls + ": interrupt probability out of [0, 1)");
    if (c.tail_fraction > 0.0) {
      check(c.tail_fraction < 1.0, cls + ": tail fraction out of [0, 1)");
      check(c.tail_lo_bytes > 0.0 && c.tail_hi_bytes > c.tail_lo_bytes,
            cls + ": invalid Pareto tail bounds");
      check(c.tail_shape > 0.0, cls + ": Pareto shape must be > 0");
    }
    // The exact-count generator gives every document at least one request.
    const double docs =
        static_cast<double>(distinct_documents) * c.distinct_fraction;
    const double reqs =
        static_cast<double>(total_requests) * c.request_fraction;
    check(reqs + 0.5 >= docs,
          cls + ": request fraction too small for its document fraction");
  }
  check(std::abs(distinct_sum - 1.0) < 1e-6, "distinct fractions must sum to 1");
  check(std::abs(request_sum - 1.0) < 1e-6, "request fractions must sum to 1");
}

// ---------------------------------------------------------------- DFN
//
// Calibration provenance (paper, Section 2):
//  * Table 1: 2,987,565 distinct documents; 6,718,210 total requests
//    (2.25 requests per distinct document).
//  * Prose: "HTML and image documents together account for about 95% of
//    documents seen and of requests received"; multimedia distinct share
//    0.23% and request share 0.14% (Section 4.4 comparison); HTML request
//    share 21.2%; requested-data shares: images 30.8%, application 34.8%
//    (Section 4.4), multimedia + application > 40% combined.
//  * Size columns of Table 4 were not recoverable from the available text;
//    means/medians below are set to the values reported for the same
//    classes in Arlitt, Friedrich & Jin (Perf. Eval. 39, 2000) and Mahanti,
//    Williamson & Eager (IEEE Network 14(3), 2000), adjusted so that the
//    *emergent* requested-data shares match the paper's percentages
//    (verified by `webcache characterize` on a generated DFN trace).
//  * alpha/beta follow the prose ordering: alpha largest for images,
//    smallest for multimedia/application; beta inverse (images nearly
//    uncorrelated, multimedia/application highly correlated).
WorkloadProfile WorkloadProfile::DFN() {
  WorkloadProfile p;
  p.name = "DFN";
  p.distinct_documents = 2'987'565;
  p.total_requests = 6'718'210;
  p.mean_interarrival_ms = 386.0;  // ~30 days of trace at full scale

  ClassProfile images;
  images.doc_class = DocumentClass::kImage;
  images.distinct_fraction = 0.720;
  images.request_fraction = 0.725;
  images.size_mean_bytes = 7.8 * kKB;
  images.size_median_bytes = 3.0 * kKB;
  images.tail_fraction = 0.004;
  images.tail_shape = 1.3;
  images.tail_lo_bytes = 64 * kKB;
  images.tail_hi_bytes = 4 * kMB;
  images.alpha = 0.86;
  images.beta = 0.38;
  images.correlation_probability = 0.12;
  images.modification_probability = 0.001;
  images.interrupt_probability = 0.004;

  ClassProfile html;
  html.doc_class = DocumentClass::kHtml;
  html.distinct_fraction = 0.228;
  html.request_fraction = 0.212;
  html.size_mean_bytes = 14.0 * kKB;
  html.size_median_bytes = 5.5 * kKB;
  html.tail_fraction = 0.01;
  html.tail_shape = 1.3;
  html.tail_lo_bytes = 96 * kKB;
  html.tail_hi_bytes = 8 * kMB;
  html.alpha = 0.72;
  html.beta = 0.55;
  html.correlation_probability = 0.22;
  html.modification_probability = 0.012;
  html.interrupt_probability = 0.004;

  ClassProfile multimedia;
  multimedia.doc_class = DocumentClass::kMultiMedia;
  multimedia.distinct_fraction = 0.0023;
  multimedia.request_fraction = 0.0014;  // fewer requests than documents in
                                         // relative terms: mostly one-timers
  multimedia.size_mean_bytes = 750.0 * kKB;
  multimedia.size_median_bytes = 250.0 * kKB;
  multimedia.tail_fraction = 0.04;
  multimedia.tail_shape = 1.1;
  multimedia.tail_lo_bytes = 4 * kMB;
  multimedia.tail_hi_bytes = 64 * kMB;
  multimedia.alpha = 0.52;
  multimedia.beta = 0.92;
  multimedia.correlation_probability = 0.50;
  multimedia.modification_probability = 0.0005;
  multimedia.interrupt_probability = 0.18;

  ClassProfile application;
  application.doc_class = DocumentClass::kApplication;
  application.distinct_fraction = 0.0180;
  application.request_fraction = 0.0220;
  application.size_mean_bytes = 140.0 * kKB;
  application.size_median_bytes = 12.0 * kKB;  // large mean, small median
  application.tail_fraction = 0.02;
  application.tail_shape = 1.15;
  application.tail_lo_bytes = 2 * kMB;
  application.tail_hi_bytes = 48 * kMB;
  application.alpha = 0.58;
  application.beta = 0.85;
  application.correlation_probability = 0.55;
  application.modification_probability = 0.001;
  application.interrupt_probability = 0.12;

  ClassProfile other;
  other.doc_class = DocumentClass::kOther;
  other.distinct_fraction = 1.0 - (0.720 + 0.228 + 0.0023 + 0.0180);
  other.request_fraction = 1.0 - (0.725 + 0.212 + 0.0014 + 0.0220);
  other.size_mean_bytes = 35.0 * kKB;
  other.size_median_bytes = 7.0 * kKB;
  other.alpha = 0.68;
  other.beta = 0.55;
  other.correlation_probability = 0.20;
  other.modification_probability = 0.002;
  other.interrupt_probability = 0.01;

  p.of(DocumentClass::kImage) = images;
  p.of(DocumentClass::kHtml) = html;
  p.of(DocumentClass::kMultiMedia) = multimedia;
  p.of(DocumentClass::kApplication) = application;
  p.of(DocumentClass::kOther) = other;
  p.validate();
  return p;
}

// ---------------------------------------------------------------- RTP
//
// Calibration provenance (paper, Sections 2 and 4.4):
//  * Table 1: 2,227,339 distinct documents; ~4,144,900 total requests.
//  * "the RTP trace contains a significantly higher percentage of distinct
//    multi media documents and percentage of requests to multi media
//    documents (i.e., 0.41% versus 0.23% and 0.33% versus 0.14%)";
//    "a smaller percentage of requested data to image and application
//    documents than the DFN trace (i.e., 19.7% versus 30.8% and 21.9%
//    versus 34.8%)"; "a higher percentage of requests to HTML documents
//    (i.e., 44.2% versus 21.2%)".
//  * "GD* suffers from the small slope alpha of the popularity distribution
//    in the RTP trace" -> all alphas reduced relative to DFN.
//  * "The slopes beta ... for HTML, multi media, and application documents
//    are much bigger than the overall slope ..., which is dominated by the
//    slope of image documents" -> per-type betas raised for HTML/MM/app.
WorkloadProfile WorkloadProfile::RTP() {
  WorkloadProfile p;
  p.name = "RTP";
  p.distinct_documents = 2'227'339;
  p.total_requests = 4'144'900;
  p.mean_interarrival_ms = 584.0;

  ClassProfile images;
  images.doc_class = DocumentClass::kImage;
  images.distinct_fraction = 0.640;
  images.request_fraction = 0.478;
  images.size_mean_bytes = 5.9 * kKB;
  images.size_median_bytes = 2.8 * kKB;
  images.tail_fraction = 0.004;
  images.tail_shape = 1.3;
  images.tail_lo_bytes = 64 * kKB;
  images.tail_hi_bytes = 4 * kMB;
  images.alpha = 0.66;
  images.beta = 0.45;
  images.correlation_probability = 0.15;
  images.modification_probability = 0.001;
  images.interrupt_probability = 0.004;

  ClassProfile html;
  html.doc_class = DocumentClass::kHtml;
  html.distinct_fraction = 0.310;
  html.request_fraction = 0.442;
  html.size_mean_bytes = 9.6 * kKB;
  html.size_median_bytes = 4.5 * kKB;
  html.tail_fraction = 0.01;
  html.tail_shape = 1.3;
  html.tail_lo_bytes = 96 * kKB;
  html.tail_hi_bytes = 8 * kMB;
  html.alpha = 0.58;
  html.beta = 0.80;
  html.correlation_probability = 0.40;
  html.modification_probability = 0.015;
  html.interrupt_probability = 0.004;

  ClassProfile multimedia;
  multimedia.doc_class = DocumentClass::kMultiMedia;
  multimedia.distinct_fraction = 0.0041;
  multimedia.request_fraction = 0.0033;
  multimedia.size_mean_bytes = 700.0 * kKB;
  multimedia.size_median_bytes = 240.0 * kKB;
  multimedia.tail_fraction = 0.04;
  multimedia.tail_shape = 1.1;
  multimedia.tail_lo_bytes = 4 * kMB;
  multimedia.tail_hi_bytes = 64 * kMB;
  multimedia.alpha = 0.42;
  multimedia.beta = 1.10;
  multimedia.correlation_probability = 0.60;
  multimedia.modification_probability = 0.0005;
  multimedia.interrupt_probability = 0.20;

  ClassProfile application;
  application.doc_class = DocumentClass::kApplication;
  application.distinct_fraction = 0.0160;
  application.request_fraction = 0.0165;
  application.size_mean_bytes = 115.0 * kKB;
  application.size_median_bytes = 11.0 * kKB;
  application.tail_fraction = 0.02;
  application.tail_shape = 1.15;
  application.tail_lo_bytes = 2 * kMB;
  application.tail_hi_bytes = 48 * kMB;
  application.alpha = 0.46;
  application.beta = 1.00;
  application.correlation_probability = 0.55;
  application.modification_probability = 0.001;
  application.interrupt_probability = 0.12;

  ClassProfile other;
  other.doc_class = DocumentClass::kOther;
  other.distinct_fraction = 1.0 - (0.640 + 0.310 + 0.0041 + 0.0160);
  other.request_fraction = 1.0 - (0.478 + 0.442 + 0.0033 + 0.0165);
  other.size_mean_bytes = 15.2 * kKB;
  other.size_median_bytes = 4.5 * kKB;
  other.alpha = 0.55;
  other.beta = 0.60;
  other.correlation_probability = 0.25;
  other.modification_probability = 0.002;
  other.interrupt_probability = 0.01;

  p.of(DocumentClass::kImage) = images;
  p.of(DocumentClass::kHtml) = html;
  p.of(DocumentClass::kMultiMedia) = multimedia;
  p.of(DocumentClass::kApplication) = application;
  p.of(DocumentClass::kOther) = other;
  p.validate();
  return p;
}

}  // namespace webcache::synth
