/**
 * @file
 * The one JSON string writer shared by the report, timeline and DSE
 * journal emitters.
 */

#ifndef CHARON_SIM_JSON_HH
#define CHARON_SIM_JSON_HH

#include <iosfwd>
#include <string>

namespace charon::sim
{

/**
 * Write @p s as a quoted JSON string: `"` and `\` are escaped, a
 * newline, tab and carriage return print as `\n`, `\t` and `\r`, and
 * every other control character as `\u00XX`.  DSE journals persist
 * these bytes, so the escapes never change.
 */
void putJsonString(std::ostream &os, const std::string &s);

} // namespace charon::sim

#endif // CHARON_SIM_JSON_HH
