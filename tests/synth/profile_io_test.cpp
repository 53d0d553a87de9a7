#include "synth/profile_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

namespace webcache::synth {
namespace {

TEST(ProfileIo, DfnRoundTripsExactly) {
  const WorkloadProfile original = WorkloadProfile::DFN();
  std::istringstream in(profile_to_text(original));
  const WorkloadProfile loaded = profile_from_text(in);
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.distinct_documents, original.distinct_documents);
  EXPECT_EQ(loaded.total_requests, original.total_requests);
  EXPECT_DOUBLE_EQ(loaded.mean_interarrival_ms, original.mean_interarrival_ms);
  for (const auto cls : trace::kAllDocumentClasses) {
    const ClassProfile& a = original.of(cls);
    const ClassProfile& b = loaded.of(cls);
    EXPECT_DOUBLE_EQ(b.distinct_fraction, a.distinct_fraction);
    EXPECT_DOUBLE_EQ(b.request_fraction, a.request_fraction);
    EXPECT_DOUBLE_EQ(b.size_mean_bytes, a.size_mean_bytes);
    EXPECT_DOUBLE_EQ(b.size_median_bytes, a.size_median_bytes);
    EXPECT_DOUBLE_EQ(b.tail_fraction, a.tail_fraction);
    EXPECT_DOUBLE_EQ(b.alpha, a.alpha);
    EXPECT_DOUBLE_EQ(b.beta, a.beta);
    EXPECT_DOUBLE_EQ(b.correlation_probability, a.correlation_probability);
  }
}

TEST(ProfileIo, RtpRoundTripsAndValidates) {
  std::istringstream in(profile_to_text(WorkloadProfile::RTP()));
  EXPECT_NO_THROW(profile_from_text(in).validate());
}

TEST(ProfileIo, CommentsAndWhitespaceTolerated) {
  std::string text = profile_to_text(WorkloadProfile::DFN());
  text = "# leading comment\n\n  \t\n" + text + "\n# trailing\n";
  // Inline comment on a value line.
  text.replace(text.find("alpha = "), 0, "# inline section comment\n");
  std::istringstream in(text);
  EXPECT_NO_THROW(profile_from_text(in));
}

TEST(ProfileIo, ErrorsCarryLineNumbers) {
  auto expect_error = [](const std::string& text, const char* needle) {
    std::istringstream in(text);
    try {
      profile_from_text(in);
      FAIL() << "expected an exception for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("nonsense line without equals", "key = value");
  expect_error("[NoSuchClass]\n", "unknown class");
  expect_error("unknown_key = 5\n", "unknown top-level key");
  expect_error("[Images]\nwrong_field = 1\n", "unknown class key");
  expect_error("distinct_documents = banana\n", "bad number");
  // Strict numbers: no wrap-around of negatives, no ignored tail.
  expect_error("total_requests = -1\n", "bad number '-1' at line 1");
  expect_error("name = X\ndistinct_documents = 12abc\n",
               "bad number '12abc' at line 2");
  expect_error("[Images]\nalpha = 0.5x\n", "bad number '0.5x' at line 2");
  expect_error("[Images\n", "unterminated section");
}

TEST(ProfileIo, ValidationStillApplies) {
  // A syntactically fine profile with shares that do not sum to one must
  // be rejected by the embedded validator.
  std::string text = profile_to_text(WorkloadProfile::DFN());
  const auto pos = text.find("request_fraction = ");
  text.replace(pos, text.find('\n', pos) - pos, "request_fraction = 0.9");
  std::istringstream in(text);
  EXPECT_THROW(profile_from_text(in), std::invalid_argument);
}

TEST(ProfileIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/webcache_profile_test.ini";
  save_profile_file(path, WorkloadProfile::RTP());
  const WorkloadProfile loaded = load_profile_file(path);
  EXPECT_EQ(loaded.name, "RTP");
  EXPECT_EQ(loaded.total_requests, WorkloadProfile::RTP().total_requests);
  std::remove(path.c_str());
}

TEST(ProfileIo, MissingFileThrows) {
  EXPECT_THROW(load_profile_file("/nonexistent/profile.ini"),
               std::runtime_error);
}

TEST(ProfileIo, EditedProfileDrivesGenerator) {
  // The workflow the format exists for: dump a preset, tweak one knob,
  // load, generate.
  std::string text = profile_to_text(WorkloadProfile::DFN().scaled(0.002));
  std::istringstream in(text);
  WorkloadProfile profile = profile_from_text(in);
  profile.of(trace::DocumentClass::kHtml).alpha = 0.9;
  EXPECT_NO_THROW(profile.validate());
}

}  // namespace
}  // namespace webcache::synth
