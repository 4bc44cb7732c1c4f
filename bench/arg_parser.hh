/**
 * @file
 * Declarative command-line parsing for the bench binaries and examples.
 *
 * Each binary registers its options and positionals once (ArgSpec
 * records held by an ArgParser), then calls parseOrExit(). The parser
 * handles `--opt value` and `--opt=value`, generates `--help` from the
 * registered specs, rejects unknown flags, and -- unlike the atoi()
 * loops it replaces -- rejects non-numeric garbage instead of silently
 * reading it as zero.
 *
 * Exit protocol: `--help` prints usage to stdout and exits 0; any
 * parse error prints every problem plus the usage to stderr and exits
 * 2, so sweep scripts fail fast instead of simulating a typo.
 */

#ifndef NOCSTAR_BENCH_ARG_PARSER_HH
#define NOCSTAR_BENCH_ARG_PARSER_HH

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "sim/parse.hh"

namespace nocstar::bench
{

/** One registered option, flag or positional. */
struct ArgSpec
{
    enum class Kind
    {
        Flag, ///< --name, no value
        Value, ///< --name VALUE or --name=VALUE
        OptionalValue, ///< --name or --name=VALUE (never eats the
                       ///< next argument)
        Positional, ///< bare argument, filled in registration order
    };

    std::string name; ///< option name without "--"; metavar for
                      ///< positionals
    std::string metavar; ///< value placeholder in usage (Value kinds)
    std::string help;
    Kind kind = Kind::Flag;
    bool required = false; ///< positionals only
    bool seen = false;
    /** Store a value; false means the value did not parse. */
    std::function<bool(const std::string &)> store;
    /** Fire for Flag / OptionalValue-without-value. */
    std::function<void()> fire;
};

/**
 * The parser: a list of ArgSpecs plus the parse loop and the usage
 * generator. All registration methods return *this for chaining.
 */
class ArgParser
{
  public:
    ArgParser(std::string program, std::string description)
        : program_(std::move(program)),
          description_(std::move(description))
    {}

    // -- Typed value options (--name VALUE | --name=VALUE) ------------

    ArgParser &
    option(const std::string &name, std::uint64_t *out,
           const std::string &help, const std::string &metavar = "N")
    {
        return valueSpec(name, metavar, help,
                         [out](const std::string &v) {
                             return sim::parseUnsigned(v, *out);
                         });
    }

    ArgParser &
    option(const std::string &name, unsigned *out,
           const std::string &help, const std::string &metavar = "N")
    {
        return valueSpec(name, metavar, help,
                         [out](const std::string &v) {
                             std::uint64_t wide = 0;
                             if (!sim::parseUnsigned(v, wide) ||
                                 wide > 0xffffffffULL)
                                 return false;
                             *out = static_cast<unsigned>(wide);
                             return true;
                         });
    }

    ArgParser &
    option(const std::string &name, double *out,
           const std::string &help, const std::string &metavar = "X")
    {
        return valueSpec(name, metavar, help,
                         [out](const std::string &v) {
                             return sim::parseDouble(v, *out);
                         });
    }

    ArgParser &
    option(const std::string &name, std::string *out,
           const std::string &help,
           const std::string &metavar = "FILE")
    {
        return valueSpec(name, metavar, help,
                         [out](const std::string &v) {
                             *out = v;
                             return true;
                         });
    }

    /** Value option with a custom store (validation included). */
    ArgParser &
    option(const std::string &name,
           std::function<bool(const std::string &)> store,
           const std::string &help, const std::string &metavar = "V")
    {
        return valueSpec(name, metavar, help, std::move(store));
    }

    /** Boolean flag (--name). */
    ArgParser &
    flag(const std::string &name, bool *out, const std::string &help)
    {
        ArgSpec spec;
        spec.name = name;
        spec.help = help;
        spec.kind = ArgSpec::Kind::Flag;
        spec.fire = [out] { *out = true; };
        specs_.push_back(std::move(spec));
        return *this;
    }

    /**
     * Option usable bare or with =VALUE (--name | --name=VALUE), e.g.
     * --progress[=SECONDS]. Never consumes the following argument.
     */
    ArgParser &
    optionalValue(const std::string &name, std::function<void()> bare,
                  std::function<bool(const std::string &)> store,
                  const std::string &help,
                  const std::string &metavar = "V")
    {
        ArgSpec spec;
        spec.name = name;
        spec.metavar = metavar;
        spec.help = help;
        spec.kind = ArgSpec::Kind::OptionalValue;
        spec.fire = std::move(bare);
        spec.store = std::move(store);
        specs_.push_back(std::move(spec));
        return *this;
    }

    // -- Positionals (filled left to right in registration order) ----

    ArgParser &
    positional(const std::string &metavar, std::uint64_t *out,
               const std::string &help, bool required = false)
    {
        return positionalSpec(metavar, help, required,
                              [out](const std::string &v) {
                                  return sim::parseUnsigned(v, *out);
                              });
    }

    ArgParser &
    positional(const std::string &metavar, unsigned *out,
               const std::string &help, bool required = false)
    {
        return positionalSpec(metavar, help, required,
                              [out](const std::string &v) {
                                  std::uint64_t wide = 0;
                                  if (!sim::parseUnsigned(v, wide) ||
                                      wide > 0xffffffffULL)
                                      return false;
                                  *out = static_cast<unsigned>(wide);
                                  return true;
                              });
    }

    ArgParser &
    positional(const std::string &metavar, std::string *out,
               const std::string &help, bool required = false)
    {
        return positionalSpec(metavar, help, required,
                              [out](const std::string &v) {
                                  *out = v;
                                  return true;
                              });
    }

    /**
     * Cross-option rule, run once every argument is parsed: a
     * non-empty return is reported like any other parse error.
     */
    ArgParser &
    check(std::function<std::string()> rule)
    {
        checks_.push_back(std::move(rule));
        return *this;
    }

    /** Was this option/positional supplied on the command line? */
    bool
    seen(const std::string &name) const
    {
        for (const ArgSpec &spec : specs_)
            if (spec.name == name)
                return spec.seen;
        return false;
    }

    /**
     * Parse @p argv. Returns true on success; on failure every
     * problem is appended to errors().
     */
    bool
    parse(int argc, char **argv)
    {
        std::size_t next_positional = 0;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                helpRequested_ = true;
                continue;
            }
            if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
                std::string name = arg.substr(2);
                std::string value;
                bool has_value = false;
                if (std::size_t eq = name.find('=');
                    eq != std::string::npos) {
                    value = name.substr(eq + 1);
                    name.erase(eq);
                    has_value = true;
                }
                ArgSpec *spec = find(name);
                if (!spec) {
                    errors_.push_back("unknown option --" + name);
                    continue;
                }
                spec->seen = true;
                switch (spec->kind) {
                  case ArgSpec::Kind::Flag:
                    if (has_value)
                        errors_.push_back("--" + name +
                                          " takes no value");
                    else
                        spec->fire();
                    break;
                  case ArgSpec::Kind::OptionalValue:
                    if (has_value) {
                        if (!spec->store(value))
                            errors_.push_back("invalid value '" +
                                              value + "' for --" +
                                              name);
                    } else {
                        spec->fire();
                    }
                    break;
                  case ArgSpec::Kind::Value:
                    if (!has_value) {
                        if (i + 1 >= argc) {
                            errors_.push_back("--" + name +
                                              " needs a value");
                            break;
                        }
                        value = argv[++i];
                    }
                    if (!spec->store(value))
                        errors_.push_back("invalid value '" + value +
                                          "' for --" + name);
                    break;
                  case ArgSpec::Kind::Positional:
                    break; // unreachable: positionals aren't options
                }
                continue;
            }
            if (arg.size() > 1 && arg[0] == '-') {
                errors_.push_back("unknown option " + arg);
                continue;
            }
            // Bare argument: the next unfilled positional.
            ArgSpec *spec = nullptr;
            while (next_positional < specs_.size()) {
                ArgSpec &candidate = specs_[next_positional++];
                if (candidate.kind == ArgSpec::Kind::Positional) {
                    spec = &candidate;
                    break;
                }
            }
            if (!spec) {
                errors_.push_back("unexpected argument '" + arg + "'");
                continue;
            }
            spec->seen = true;
            if (!spec->store(arg))
                errors_.push_back("invalid value '" + arg + "' for " +
                                  spec->name);
        }
        for (const ArgSpec &spec : specs_)
            if (spec.kind == ArgSpec::Kind::Positional &&
                spec.required && !spec.seen)
                errors_.push_back("missing required argument " +
                                  spec.name);
        for (const auto &rule : checks_)
            if (std::string error = rule(); !error.empty())
                errors_.push_back(std::move(error));
        return errors_.empty();
    }

    /**
     * parse(), then honour --help (usage to stdout, exit 0) and
     * errors (all of them plus usage to stderr, exit 2).
     */
    void
    parseOrExit(int argc, char **argv)
    {
        bool ok = parse(argc, argv);
        if (helpRequested_) {
            printUsage(std::cout);
            std::exit(0);
        }
        if (!ok) {
            for (const std::string &e : errors_)
                std::cerr << program_ << ": " << e << "\n";
            printUsage(std::cerr);
            std::exit(2);
        }
    }

    bool helpRequested() const { return helpRequested_; }
    const std::vector<std::string> &errors() const { return errors_; }

    void
    printUsage(std::ostream &os) const
    {
        os << "usage: " << program_ << " [options]";
        for (const ArgSpec &spec : specs_) {
            if (spec.kind != ArgSpec::Kind::Positional)
                continue;
            os << (spec.required ? " " + spec.name
                                 : " [" + spec.name + "]");
        }
        os << "\n";
        if (!description_.empty())
            os << "\n" << description_ << "\n";

        bool have_positionals = false;
        for (const ArgSpec &spec : specs_)
            have_positionals |=
                spec.kind == ArgSpec::Kind::Positional;
        if (have_positionals) {
            os << "\npositional arguments:\n";
            for (const ArgSpec &spec : specs_)
                if (spec.kind == ArgSpec::Kind::Positional)
                    printSpec(os, spec.name, spec.help);
        }
        os << "\noptions:\n";
        for (const ArgSpec &spec : specs_) {
            switch (spec.kind) {
              case ArgSpec::Kind::Flag:
                printSpec(os, "--" + spec.name, spec.help);
                break;
              case ArgSpec::Kind::Value:
                printSpec(os, "--" + spec.name + " " + spec.metavar,
                          spec.help);
                break;
              case ArgSpec::Kind::OptionalValue:
                printSpec(os,
                          "--" + spec.name + "[=" + spec.metavar + "]",
                          spec.help);
                break;
              case ArgSpec::Kind::Positional:
                break;
            }
        }
        printSpec(os, "--help", "show this help and exit");
    }

  private:
    ArgParser &
    valueSpec(const std::string &name, const std::string &metavar,
              const std::string &help,
              std::function<bool(const std::string &)> store)
    {
        ArgSpec spec;
        spec.name = name;
        spec.metavar = metavar;
        spec.help = help;
        spec.kind = ArgSpec::Kind::Value;
        spec.store = std::move(store);
        specs_.push_back(std::move(spec));
        return *this;
    }

    ArgParser &
    positionalSpec(const std::string &metavar, const std::string &help,
                   bool required,
                   std::function<bool(const std::string &)> store)
    {
        ArgSpec spec;
        spec.name = metavar;
        spec.help = help;
        spec.kind = ArgSpec::Kind::Positional;
        spec.required = required;
        spec.store = std::move(store);
        specs_.push_back(std::move(spec));
        return *this;
    }

    ArgSpec *
    find(const std::string &name)
    {
        for (ArgSpec &spec : specs_)
            if (spec.kind != ArgSpec::Kind::Positional &&
                spec.name == name)
                return &spec;
        return nullptr;
    }

    static void
    printSpec(std::ostream &os, const std::string &left,
              const std::string &help)
    {
        os << "  " << left;
        if (left.size() < 24)
            os << std::string(24 - left.size(), ' ');
        else
            os << "\n  " << std::string(24, ' ');
        os << help << "\n";
    }

    std::string program_;
    std::string description_;
    std::vector<ArgSpec> specs_;
    std::vector<std::function<std::string()>> checks_;
    std::vector<std::string> errors_;
    bool helpRequested_ = false;
};

} // namespace nocstar::bench

#endif // NOCSTAR_BENCH_ARG_PARSER_HH
