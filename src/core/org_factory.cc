/**
 * @file
 * Organization factory: the single construction point for the
 * organizations of Fig 1 / Table II.
 */

#include "core/distributed_org.hh"
#include "core/monolithic_org.hh"
#include "core/nocstar_org.hh"
#include "core/organization.hh"
#include "core/private_org.hh"

namespace nocstar::core
{

std::unique_ptr<TlbOrganization>
makeOrganization(const OrgConfig &config, OrgContext context,
                 stats::StatGroup *parent)
{
    if (std::vector<std::string> errors = config.validate();
        !errors.empty())
        fatal("invalid organization config:", joinConfigErrors(errors));
    switch (config.kind) {
      case OrgKind::Private:
        return std::make_unique<PrivateOrg>(config, std::move(context),
                                            parent);
      case OrgKind::MonolithicMesh:
      case OrgKind::MonolithicSmart:
        return std::make_unique<MonolithicOrg>(config, std::move(context),
                                               parent);
      case OrgKind::Distributed:
      case OrgKind::IdealShared:
        return std::make_unique<DistributedOrg>(config,
                                                std::move(context),
                                                parent);
      case OrgKind::Nocstar:
      case OrgKind::NocstarIdeal:
        return std::make_unique<NocstarOrg>(config, std::move(context),
                                            parent);
    }
    fatal("unknown organization kind");
}

} // namespace nocstar::core
