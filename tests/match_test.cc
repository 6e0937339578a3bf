// Tests for the pattern-matching substrate: Aho–Corasick vs a naive oracle,
// the regex engine against expected semantics, rule parsing, and full
// rule-set scans over synthetic traces.
#include <gtest/gtest.h>

#include <numeric>

#include "apps/match/aho_corasick.h"
#include "apps/match/regex.h"
#include "apps/match/ruleset.h"
#include "common/rng.h"
#include "workload/synthetic.h"

namespace speed::match {
namespace {

// ------------------------------------------------------------ Aho-Corasick

std::vector<Bytes> patterns_of(std::initializer_list<const char*> list) {
  std::vector<Bytes> out;
  for (const char* p : list) out.push_back(to_bytes(p));
  return out;
}

TEST(AhoCorasickTest, FindsAllOccurrencesIncludingOverlaps) {
  const AhoCorasick ac(patterns_of({"he", "she", "his", "hers"}));
  const auto matches = ac.find_all(as_bytes("ushers"));
  // Classic example: "she" at 4, "he" at 4, "hers" at 6.
  ASSERT_EQ(matches.size(), 3u);
  std::vector<std::pair<std::size_t, std::size_t>> got;
  for (const auto& m : matches) got.emplace_back(m.pattern_index, m.end_offset);
  EXPECT_NE(std::find(got.begin(), got.end(), std::make_pair<std::size_t, std::size_t>(1, 4)), got.end());
  EXPECT_NE(std::find(got.begin(), got.end(), std::make_pair<std::size_t, std::size_t>(0, 4)), got.end());
  EXPECT_NE(std::find(got.begin(), got.end(), std::make_pair<std::size_t, std::size_t>(3, 6)), got.end());
}

TEST(AhoCorasickTest, DistinctBitmap) {
  const AhoCorasick ac(patterns_of({"abc", "zzz", "b"}));
  const auto hit = ac.find_distinct(as_bytes("xxabcxx"));
  EXPECT_TRUE(hit[0]);
  EXPECT_FALSE(hit[1]);
  EXPECT_TRUE(hit[2]);
}

TEST(AhoCorasickTest, RejectsEmptyPattern) {
  EXPECT_THROW(AhoCorasick(patterns_of({"ok", ""})), Error);
}

TEST(AhoCorasickTest, BinaryPatterns) {
  std::vector<Bytes> pats = {{0x00, 0xff, 0x00}, {0xde, 0xad}};
  const AhoCorasick ac(pats);
  Bytes text = {0x01, 0x00, 0xff, 0x00, 0xde, 0xad, 0x00};
  const auto hits = ac.find_distinct(text);
  EXPECT_TRUE(hits[0]);
  EXPECT_TRUE(hits[1]);
}

TEST(AhoCorasickTest, AgreesWithNaiveOracleOnRandomData) {
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    // Small alphabet to force plenty of matches and shared prefixes.
    std::vector<Bytes> patterns;
    const std::size_t n_patterns = 2 + rng.below(10);
    for (std::size_t i = 0; i < n_patterns; ++i) {
      const std::size_t len = 1 + rng.below(4);
      Bytes p;
      for (std::size_t j = 0; j < len; ++j) {
        p.push_back(static_cast<std::uint8_t>('a' + rng.below(3)));
      }
      patterns.push_back(p);
    }
    Bytes text;
    for (int j = 0; j < 500; ++j) {
      text.push_back(static_cast<std::uint8_t>('a' + rng.below(3)));
    }

    const AhoCorasick ac(patterns);
    auto got = ac.find_all(text);
    std::vector<AcMatch> expected;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      const Bytes& pat = patterns[p];
      for (std::size_t i = 0; i + pat.size() <= text.size(); ++i) {
        if (std::equal(pat.begin(), pat.end(), text.begin() + static_cast<long>(i))) {
          expected.push_back(AcMatch{p, i + pat.size()});
        }
      }
    }
    const auto key = [](const AcMatch& m) {
      return std::make_pair(m.end_offset, m.pattern_index);
    };
    std::sort(got.begin(), got.end(), [&](const auto& a, const auto& b) { return key(a) < key(b); });
    std::sort(expected.begin(), expected.end(), [&](const auto& a, const auto& b) { return key(a) < key(b); });
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].pattern_index, expected[i].pattern_index);
      EXPECT_EQ(got[i].end_offset, expected[i].end_offset);
    }
  }
}

// ------------------------------------------------------------------ regex

struct RegexCase {
  const char* name;
  const char* pattern;
  const char* text;
  bool expect;
};

// gtest prints GetParam() into each listed test name, and ctest registers that
// name. Without this overload the struct prints as its raw bytes: string
// pointers that move with every relink and every address-space layout.
void PrintTo(const RegexCase& c, std::ostream* os) {
  *os << (c.expect ? "match" : "no match");
}

const RegexCase kRegexCases[] = {
    {"literal_hit", "abc", "xxabcxx", true},
    {"literal_miss", "abc", "ab c", false},
    {"dot", "a.c", "azc", true},
    {"dot_not_newline", "a.c", "a\nc", false},
    {"star", "ab*c", "ac", true},
    {"star_many", "ab*c", "abbbbc", true},
    {"plus_needs_one", "ab+c", "ac", false},
    {"plus_hit", "ab+c", "abbc", true},
    {"question", "colou?r", "color", true},
    {"question2", "colou?r", "colour", true},
    {"class", "[abc]+", "zzzb", true},
    {"class_range", "[a-f0-9]{4}", "xxxdead", true},
    {"class_negated", "[^0-9]", "123a", true},
    {"class_negated_miss", "^[^0-9]+$", "12a3", false},
    {"digit", "\\d{3}", "ab123", true},
    {"word", "\\w+@\\w+", "mail me@host now", true},
    {"space", "a\\sb", "a b", true},
    {"anchor_start", "^GET", "GET /x", true},
    {"anchor_start_miss", "^GET", "xGET /x", false},
    {"anchor_end", "php$", "index.php", true},
    {"anchor_end_miss", "php$", "index.php?q=1", false},
    {"alt", "cat|dog", "hotdog", true},
    {"alt_anchored_branch", "^a|b", "xb", true},
    {"group_star", "(ab)+", "xxababx", true},
    {"group_alt", "(GET|POST) /", "POST /form", true},
    {"bound_exact", "a{3}", "aa", false},
    {"bound_exact_hit", "a{3}", "aaa", true},
    {"bound_range", "a{2,3}b", "aaab", true},
    {"bound_min", "x{2,}", "axxa", true},
    {"hex_escape", "\\x41\\x42", "zAB", true},
    {"escaped_dot", "1\\.5", "1.5", true},
    {"escaped_dot_miss", "1\\.5", "1x5", false},
    {"nop_sled", "\\x90{8,}", "\x90\x90\x90\x90\x90\x90\x90\x90\x90", true},
    {"url_rule", "GET /[a-z0-9_]{4,}\\.php", "GET /admin_x1.php HTTP/1.1", true},
    {"backtracking", "a.*c.*e", "abcde", true},
    {"empty_pattern", "", "anything", true},
    {"literal_brace", "a{x}", "za{x}z", true},
};

class RegexCaseTest : public ::testing::TestWithParam<RegexCase> {};

TEST_P(RegexCaseTest, Matches) {
  const auto& c = GetParam();
  const Regex re(c.pattern);
  EXPECT_EQ(re.search(std::string_view(c.text)), c.expect)
      << "/" << c.pattern << "/ on \"" << c.text << "\"";
}

INSTANTIATE_TEST_SUITE_P(Cases, RegexCaseTest, ::testing::ValuesIn(kRegexCases),
                         [](const auto& info) { return info.param.name; });

TEST(RegexTest, SyntaxErrors) {
  EXPECT_THROW(Regex("("), RegexSyntaxError);
  EXPECT_THROW(Regex("a)"), RegexSyntaxError);
  EXPECT_THROW(Regex("["), RegexSyntaxError);
  EXPECT_THROW(Regex("*a"), RegexSyntaxError);
  EXPECT_THROW(Regex("a{3,1}"), RegexSyntaxError);
  EXPECT_THROW(Regex("[z-a]"), RegexSyntaxError);
  EXPECT_THROW(Regex("\\x4"), RegexSyntaxError);
  EXPECT_THROW(Regex("a\\"), RegexSyntaxError);
  EXPECT_THROW(Regex("^*"), RegexSyntaxError);
}

TEST(RegexTest, StepBudgetStopsPathologicalBacktracking) {
  // (a+)+$ against a long non-matching string is exponential for naive
  // backtracking; the budget must stop it deterministically.
  const Regex re("(a+)+$", /*step_budget=*/100000);
  const std::string attack(64, 'a');
  EXPECT_THROW(re.search(attack + "b"), RegexBudgetError);
}

TEST(RegexTest, BinaryInputs) {
  const Regex re("\\x00{4}");
  const Bytes zeros(8, 0x00);
  EXPECT_TRUE(re.search(ByteView(zeros)));
  const Bytes ones(8, 0x01);
  EXPECT_FALSE(re.search(ByteView(ones)));
}

// ------------------------------------------------------------------ rules

TEST(RuleParseTest, FullRuleLine) {
  const Rule r = parse_rule(
      R"(alert 2001 "exploit probe" content:"cmd.exe"; content:"|90 90 90|"; pcre:"GET /[a-z]+";)");
  EXPECT_EQ(r.id, 2001u);
  EXPECT_EQ(r.message, "exploit probe");
  ASSERT_EQ(r.contents.size(), 2u);
  EXPECT_EQ(r.contents[0], to_bytes("cmd.exe"));
  EXPECT_EQ(r.contents[1], (Bytes{0x90, 0x90, 0x90}));
  ASSERT_TRUE(r.pcre.has_value());
  EXPECT_EQ(*r.pcre, "GET /[a-z]+");
}

TEST(RuleParseTest, EscapedQuotesAndErrors) {
  const Rule r = parse_rule(R"(alert 7 "say \"hi\"" content:"a\"b";)");
  EXPECT_EQ(r.contents[0], to_bytes("a\"b"));

  EXPECT_THROW(parse_rule("drop 1 \"x\" content:\"a\";"), Error);
  EXPECT_THROW(parse_rule("alert x \"m\" content:\"a\";"), Error);
  EXPECT_THROW(parse_rule("alert 1 \"m\""), Error);
  EXPECT_THROW(parse_rule("alert 1 \"m\" bogus:\"a\";"), Error);
  EXPECT_THROW(parse_rule("alert 1 \"m\" content:\"|9|\";"), Error);
}

TEST(RuleSetTest, AllContentsRequired) {
  std::vector<Rule> rules;
  rules.push_back(parse_rule(R"(alert 1 "two contents" content:"foo"; content:"bar";)"));
  const RuleSet rs(std::move(rules));
  EXPECT_TRUE(rs.scan(as_bytes("xx foo yy bar zz")) ==
              std::vector<std::uint32_t>{1});
  EXPECT_TRUE(rs.scan(as_bytes("xx foo yy")).empty());
  EXPECT_TRUE(rs.scan(as_bytes("bar only")).empty());
}

TEST(RuleSetTest, PcreConfirmationGate) {
  std::vector<Rule> rules;
  rules.push_back(parse_rule(R"(alert 5 "php probe" content:"GET"; pcre:"GET /[a-z]{8,}\.php";)"));
  const RuleSet rs(std::move(rules));
  EXPECT_EQ(rs.scan(as_bytes("GET /verylongname.php HTTP/1.1")).size(), 1u);
  EXPECT_TRUE(rs.scan(as_bytes("GET /a.php")).empty())
      << "content hit but regex fails";
}

TEST(RuleSetTest, PcreOnlyRule) {
  std::vector<Rule> rules;
  rules.push_back(parse_rule(R"(alert 9 "regex only" pcre:"\d{6}";)"));
  const RuleSet rs(std::move(rules));
  EXPECT_EQ(rs.scan(as_bytes("id=123456")).size(), 1u);
  EXPECT_TRUE(rs.scan(as_bytes("id=123")).empty());
}

TEST(RuleSetTest, ManyRulesDistinctIds) {
  const auto rules = workload::synth_ruleset(200, /*seed=*/11);
  ASSERT_EQ(rules.size(), 200u);
  const RuleSet rs(rules);
  EXPECT_EQ(rs.rule_count(), 200u);

  // A payload embedding rule 0's contents fires exactly that rule.
  Bytes payload = to_bytes("prefix ");
  for (const Bytes& c : rules[0].contents) {
    append(payload, c);
    append(payload, as_bytes(" "));
  }
  if (!rules[0].pcre.has_value()) {
    const auto fired = rs.scan(payload);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], rules[0].id);
  }
}

TEST(RuleSetTest, SyntheticTraceProducesAlerts) {
  const auto rules = workload::synth_ruleset(100, 13);
  const RuleSet rs(rules);
  const auto trace = workload::synth_packet_trace(300, 256, rules,
                                                  /*hit_fraction=*/0.3, 17);
  std::vector<Bytes> payloads;
  for (const auto& p : trace) payloads.push_back(p.payload);
  const auto counts = rs.scan_batch(payloads);
  const std::uint64_t total = std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_GT(total, 30u) << "~30% of packets embed rule contents";
  EXPECT_LT(total, 600u);
}

TEST(RuleSetTest, CleanTraceProducesNoAlerts) {
  const auto rules = workload::synth_ruleset(50, 19);
  const RuleSet rs(rules);
  const auto trace = workload::synth_packet_trace(100, 256, rules,
                                                  /*hit_fraction=*/0.0, 23);
  for (const auto& p : trace) {
    EXPECT_TRUE(rs.scan(p.payload).empty());
  }
}

TEST(PacketTest, SerdeRoundTrip) {
  const auto rules = workload::synth_ruleset(5, 1);
  const auto trace = workload::synth_packet_trace(10, 128, rules, 0.5, 3);
  const Bytes data = serialize::serialize(trace);
  EXPECT_EQ(serialize::deserialize<PacketTrace>(data), trace);
}

}  // namespace
}  // namespace speed::match
