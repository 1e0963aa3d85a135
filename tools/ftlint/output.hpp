// ftlint/output.hpp — renders findings as text, JSON, or SARIF 2.1.0.
//
// Text goes to a human (and to CI greps over stderr); JSON is the stable
// machine form (`{"findings": [...]}`); SARIF feeds code-scanning UIs and is
// uploaded as a CI artifact. All three are deterministic: findings arrive
// pre-sorted from the engine and are rendered in order.
#pragma once

#include <string>
#include <vector>

#include "ftlint/rules.hpp"

namespace ftlint {

/// `file:line: [rule] message` — one line per finding.
std::string to_text(const std::vector<Finding>& findings);

/// {"findings":[{"file","line","rule","message"},…],"count":N}
std::string to_json(const std::vector<Finding>& findings);

/// Minimal SARIF 2.1.0 log: one run, the full rule catalog as
/// tool.driver.rules, one result per finding.
std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace ftlint
