/**
 * @file
 * MiniC recursive-descent parser.
 */

#ifndef SHIFT_LANG_PARSER_HH
#define SHIFT_LANG_PARSER_HH

#include <string>

#include "lang/ast.hh"
#include "lang/type.hh"

namespace shift::minic
{

/**
 * Deepest level a function's syntax tree may reach. Each statement,
 * expression node and pair of parentheses is one level below what
 * contains it, and operator chains count their whole length (in
 * `x+x+x` the first `x` is two levels below the last `+`), so in
 * `return x;` at the top of a body `x` is at level 2. Deeper code is
 * a parse error, well before recursion in the parser, the code
 * generator or the tree's destructor could exhaust the stack.
 */
constexpr int kMaxNesting = 1000;

/**
 * Parse MiniC source into an AST. Types are interned in `pool`, which
 * must outlive the returned tree. Throws FatalError on syntax errors.
 */
TranslationUnit parse(const std::string &source, TypePool &pool);

} // namespace shift::minic

#endif // SHIFT_LANG_PARSER_HH
