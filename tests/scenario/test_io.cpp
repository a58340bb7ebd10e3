#include "scenario/io.h"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/assigner.h"
#include "scenario/profile.h"
#include "testutil.h"
#include "thermal/heatflow.h"

namespace tapo::scenario {
namespace {

dc::DataCenter generated_dc() { return test::make_small_scenario(801, 10, 2).dc; }

TEST(Io, RoundTripPreservesStructure) {
  const auto original = generated_dc();
  std::stringstream buffer;
  save_data_center(original, buffer);
  const util::StatusOr<dc::DataCenter> loaded = load_data_center(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

  EXPECT_EQ(loaded->num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded->num_cracs(), original.num_cracs());
  EXPECT_EQ(loaded->total_cores(), original.total_cores());
  EXPECT_EQ(loaded->node_types.size(), original.node_types.size());
  EXPECT_EQ(loaded->num_task_types(), original.num_task_types());
  for (std::size_t j = 0; j < original.num_nodes(); ++j) {
    EXPECT_EQ(loaded->nodes[j].type, original.nodes[j].type);
    EXPECT_EQ(loaded->layout.nodes[j].rack, original.layout.nodes[j].rack);
    EXPECT_EQ(loaded->layout.nodes[j].label, original.layout.nodes[j].label);
    EXPECT_EQ(loaded->layout.nodes[j].hot_aisle,
              original.layout.nodes[j].hot_aisle);
  }
}

TEST(Io, RoundTripIsBitExact) {
  const auto original = generated_dc();
  std::stringstream buffer;
  save_data_center(original, buffer);
  const util::StatusOr<dc::DataCenter> loaded = load_data_center(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

  EXPECT_EQ(loaded->p_const_kw, original.p_const_kw);  // exact, hex floats
  EXPECT_EQ(loaded->redline_node_c, original.redline_node_c);
  for (std::size_t i = 0; i < original.alpha.rows(); ++i) {
    for (std::size_t j = 0; j < original.alpha.cols(); ++j) {
      EXPECT_EQ(loaded->alpha(i, j), original.alpha(i, j));
    }
  }
  for (std::size_t i = 0; i < original.num_task_types(); ++i) {
    EXPECT_EQ(loaded->task_types[i].reward, original.task_types[i].reward);
    EXPECT_EQ(loaded->task_types[i].relative_deadline,
              original.task_types[i].relative_deadline);
    EXPECT_EQ(loaded->task_types[i].arrival_rate,
              original.task_types[i].arrival_rate);
    for (std::size_t j = 0; j < original.node_types.size(); ++j) {
      for (std::size_t k = 0; k < original.ecs.num_states(); ++k) {
        EXPECT_EQ(loaded->ecs.ecs(i, j, k), original.ecs.ecs(i, j, k));
      }
    }
  }
  for (std::size_t t = 0; t < original.node_types.size(); ++t) {
    EXPECT_EQ(loaded->node_types[t].name(), original.node_types[t].name());
    EXPECT_EQ(loaded->node_types[t].base_power_kw(),
              original.node_types[t].base_power_kw());
    for (std::size_t k = 0; k < original.node_types[t].num_active_pstates(); ++k) {
      EXPECT_EQ(loaded->node_types[t].core_power_kw(k),
                original.node_types[t].core_power_kw(k));
    }
  }
}

TEST(Io, RoundTripProducesIdenticalAssignments) {
  // The acid test: the pipeline result on the loaded copy is bit-identical.
  const auto original = generated_dc();
  std::stringstream buffer;
  save_data_center(original, buffer);
  const util::StatusOr<dc::DataCenter> loaded = load_data_center(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

  const thermal::HeatFlowModel model_a(original);
  const thermal::HeatFlowModel model_b(*loaded);
  const core::Assignment a = core::ThreeStageAssigner(original, model_a).assign();
  const core::Assignment b = core::ThreeStageAssigner(*loaded, model_b).assign();
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_EQ(a.reward_rate, b.reward_rate);
  EXPECT_EQ(a.core_pstate, b.core_pstate);
}

TEST(Io, NamesWithSpacesSurvive) {
  const auto original = generated_dc();  // "HP ProLiant DL785 G5" has spaces
  std::stringstream buffer;
  save_data_center(original, buffer);
  const util::StatusOr<dc::DataCenter> loaded = load_data_center(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->node_types[0].name(), "HP ProLiant DL785 G5");
}

TEST(Io, SecondSaveIsIdentical) {
  const auto original = generated_dc();
  std::stringstream first, second;
  save_data_center(original, first);
  const util::StatusOr<dc::DataCenter> loaded = load_data_center(first);
  ASSERT_TRUE(loaded.ok());
  save_data_center(*loaded, second);
  // Compare documents: save(load(save(x))) == save(x).
  std::stringstream again;
  save_data_center(original, again);
  EXPECT_EQ(second.str(), again.str());
}

TEST(Io, RejectsWrongMagic) {
  std::stringstream buffer("not-a-tapo-file v1");
  const util::StatusOr<dc::DataCenter> loaded = load_data_center(buffer);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.status().message().empty());
}

TEST(Io, RejectsTruncatedDocument) {
  const auto original = generated_dc();
  std::stringstream buffer;
  save_data_center(original, buffer);
  std::string doc = buffer.str();
  doc.resize(doc.size() / 2);
  std::stringstream truncated(doc);
  EXPECT_FALSE(load_data_center(truncated).ok());
}

TEST(Io, RejectsInconsistentSizes) {
  const auto original = generated_dc();
  std::stringstream buffer;
  save_data_center(original, buffer);
  std::string doc = buffer.str();
  // Corrupt the node count (nodes <N> line).
  const auto pos = doc.find("nodes ");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, 8, "nodes 3\n");
  std::stringstream corrupted(doc);
  EXPECT_FALSE(load_data_center(corrupted).ok());
}

TEST(Io, RejectsBadNodeTypeReference) {
  const auto original = generated_dc();
  std::stringstream buffer;
  save_data_center(original, buffer);
  std::string doc = buffer.str();
  const auto pos = doc.find("nodes ");
  ASSERT_NE(pos, std::string::npos);
  const auto line_end = doc.find('\n', pos);
  doc.replace(line_end + 1, 1, "99");  // the first node's one-digit type
  std::stringstream corrupted(doc);
  const auto loaded = load_data_center(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown type 99"), std::string::npos)
      << loaded.status().to_string();
}

TEST(Io, FileHelpersWork) {
  const auto original = generated_dc();
  const std::string path = "/tmp/tapo_io_test_dc.txt";
  ASSERT_TRUE(save_data_center_file(original, path));
  const util::StatusOr<dc::DataCenter> loaded = load_data_center_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->num_nodes(), original.num_nodes());
  std::remove(path.c_str());
}

TEST(Io, MissingFileReportsError) {
  const auto loaded = load_data_center_file("/nonexistent/nowhere.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("cannot open"), std::string::npos);
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(Io, ParseErrorsCarryLineNumbers) {
  const auto original = generated_dc();
  std::stringstream buffer;
  save_data_center(original, buffer);
  std::string doc = buffer.str();
  // Replace the node count with a non-number token.
  const auto pos = doc.find("nodes ");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, 7, "nodes x");
  std::stringstream corrupted(doc);
  const util::StatusOr<dc::DataCenter> loaded = load_data_center(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line "), std::string::npos);
}

TEST(Io, FileErrorsArePrefixedWithThePath) {
  const auto original = generated_dc();
  const std::string path = "/tmp/tapo_io_test_corrupt.txt";
  {
    std::stringstream buffer;
    save_data_center(original, buffer);
    std::string doc = buffer.str();
    doc.resize(doc.size() / 3);
    std::ofstream os(path);
    os << doc;
  }
  const util::StatusOr<dc::DataCenter> loaded = load_data_center_file(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message().find(path), 0u);
  std::remove(path.c_str());
}

TEST(Io, PercentEncodedNamesRoundTrip) {
  auto original = generated_dc();
  const dc::NodeTypeSpec& base = original.node_types[0];
  std::vector<dc::PStateSpec> states;
  for (std::size_t k = 0; k < base.num_active_pstates(); ++k) {
    states.push_back(base.power_model().state(k));
  }
  // Percent signs, spaces and a newline all have to survive the line-oriented
  // format via percent-encoding.
  const std::string tricky = "100% weird\nname";
  original.node_types[0] = dc::NodeTypeSpec(
      tricky, base.base_power_kw(), base.cores_per_node(), base.p0_power_kw(),
      base.static_fraction(), states, base.airflow_m3s());

  std::stringstream buffer;
  save_data_center(original, buffer);
  const util::StatusOr<dc::DataCenter> loaded = load_data_center(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->node_types[0].name(), tricky);
}

std::string six_node_archive() {
  std::stringstream buffer;
  save_data_center(test::make_small_scenario(801, 6, 2).dc, buffer);
  return buffer.str();
}

util::StatusOr<dc::DataCenter> load_text(const std::string& text) {
  std::istringstream is(text);
  return load_data_center(is);
}

// Byte offset of the start of 1-based line `n`.
std::size_t line_start(const std::string& doc, std::size_t n) {
  std::size_t pos = 0;
  for (std::size_t i = 1; i < n; ++i) pos = doc.find('\n', pos) + 1;
  return pos;
}

TEST(Io, TokenAtTheEndOfALineIsAttributedToThatLine) {
  // The last token of line 4 (the first P-state's voltage) used to be
  // reported against line 5: the reader counted its newline first.
  std::string doc = six_node_archive();
  const std::size_t eol = doc.find('\n', line_start(doc, 4));
  doc.replace(eol, 1, "x\n");
  const auto loaded = load_text(doc);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message().rfind("line 4: malformed number", 0), 0u)
      << loaded.status().to_string();
}

TEST(Io, CountsAreCheckedBeforeAnythingIsSizedByThem) {
  const std::string doc = six_node_archive();
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string d = doc;
    const auto pos = d.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return d.replace(pos, from.size(), to);
  };
  // alpha 2^32 wrapped Matrix(n, n)'s n*n to 0 and the row reads then wrote
  // out of bounds; a 12-digit node count threw std::bad_alloc.
  const struct {
    std::string from, to, want;
  } cases[] = {
      {"\nalpha 8\n", "\nalpha 4294967296\n", "alpha size 4294967296"},
      {"\nnodes 6\n", "\nnodes 999999999999\n",
       "expected 999999999999 values, got 6"},
      {"\nnodes 6\n", "\nnodes 1152921504606846976\n", "values, got 6"},
      {"\ncracs 2\n", "\ncracs 1152921504606846976\n", "expected 4 values"},
      {"\nlayout 2 6\n", "\nlayout 2 1152921504606846976\n", "layout size"},
      {"\nlayout 2 6\n", "\nlayout 4294967296 6\n", "layout size"},
      {"\nnode_types 2\n", "\nnode_types 1152921504606846976\n",
       "expected 'node_type', got 'nodes'"},
      {"\ntask_types 8\n", "\ntask_types 4294967296\n", "line "},
      {"\necs 8 2 5\n", "\necs 8 2 4294967296\n", "invalid ecs dimensions"},
      {"\necs 8 2 5\n", "\necs 4294967296 2 5\n", "invalid ecs dimensions"},
      {" 32 ", " 1152921504606846976 ", "cores"},
  };
  for (const auto& c : cases) {
    const auto loaded = load_text(with(c.from, c.to));
    ASSERT_FALSE(loaded.ok()) << c.to;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(c.want), std::string::npos)
        << c.to << ": " << loaded.status().to_string();
  }
}

TEST(Io, AlphaTheThermalModelWouldRefuseIsAStatus) {
  const dc::DataCenter original = test::make_small_scenario(801, 6, 2).dc;
  const auto save_with_alpha = [&](std::size_t i, std::size_t j, double v) {
    dc::DataCenter copy = original;
    copy.alpha(i, j) = v;
    std::stringstream buffer;
    save_data_center(copy, buffer);
    return buffer.str();
  };
  // nan is no number under the lexical rules; a negative entry and a
  // broken inlet balance used to pass the loader and abort in HeatFlowModel.
  std::string nan_doc = six_node_archive();
  const auto alpha_row = nan_doc.find("\nalpha ") + 1;
  const auto first_value = nan_doc.find('\n', alpha_row) + 1;
  nan_doc.replace(first_value, nan_doc.find(' ', first_value) - first_value,
                  "nan");
  const auto nan_loaded = load_text(nan_doc);
  ASSERT_FALSE(nan_loaded.ok());
  EXPECT_NE(nan_loaded.status().message().find("malformed number 'nan'"),
            std::string::npos);

  const auto negative = load_text(save_with_alpha(0, 3, -0.25));
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("negative"), std::string::npos)
      << negative.status().to_string();
  const auto unbalanced = load_text(save_with_alpha(0, 3, original.alpha(0, 3) + 0.5));
  ASSERT_FALSE(unbalanced.ok());
  EXPECT_NE(unbalanced.status().message().find("flow balance"),
            std::string::npos)
      << unbalanced.status().to_string();
  // Both name the alpha section's line.
  EXPECT_EQ(negative.status().message().rfind("line ", 0), 0u);
}

// Every whitespace-separated token of `doc` replaced in turn by each of the
// hostile spellings; `check` sees every resulting document.
template <typename Check>
void corrupt_each_token(const std::string& doc, Check check) {
  // 2^60: large enough to overflow any size it multiplies, small enough that
  // a loader that trusts it fails fast instead of allocating.
  const char* const hostile[] = {"abc", "nan", "-1", "1e999",
                                 "1152921504606846976"};
  for (std::size_t pos = 0; pos < doc.size();) {
    if (std::isspace(static_cast<unsigned char>(doc[pos]))) {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < doc.size() &&
           !std::isspace(static_cast<unsigned char>(doc[end]))) {
      ++end;
    }
    for (const char* h : hostile) {
      std::string mutated = doc;
      mutated.replace(pos, end - pos, h);
      check(mutated);
    }
    pos = end;
  }
}

TEST(Io, CorruptionSweepOverASavedArchiveNeverDies) {
  std::size_t documents = 0, loaded_ok = 0;
  corrupt_each_token(six_node_archive(), [&](const std::string& doc) {
    ++documents;
    const auto loaded = load_text(doc);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_EQ(loaded.status().message().rfind("line ", 0), 0u)
          << loaded.status().message();
      return;
    }
    ++loaded_ok;
    const thermal::HeatFlowModel model(*loaded);  // must not abort
    EXPECT_EQ(model.linearize(std::vector<double>(loaded->num_cracs(), 15.0))
                  .node_in0.size(),
              loaded->num_nodes());
  });
  EXPECT_GT(documents, 1000u);
  // Free-form fields (names, rack slots, COP terms, redlines, the hot-aisle
  // split) take some hostile values; most tokens must reject them all.
  EXPECT_GT(loaded_ok, 0u);
  EXPECT_LT(loaded_ok, documents / 4);
}

TEST(Io, CorruptionSweepOverACommittedProfileNeverDies) {
  std::ifstream is(std::string(TAPO_SCENARIOS_DIR) + "/flash-fault-60.tapo");
  ASSERT_TRUE(is);
  const std::string doc((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  std::size_t documents = 0;
  corrupt_each_token(doc, [&](const std::string& text) {
    ++documents;
    const auto parsed = parse_profile(text);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    } else {
      EXPECT_TRUE(parsed->validate().ok());
    }
  });
  EXPECT_GT(documents, 100u);
}

}  // namespace
}  // namespace tapo::scenario
