// Package facade stands in for the module's root package: the types it
// aliases are public API.
package facade

import "repro/internal/mac/am007fix"

// Profile is the facade's name for am007fix.Profile.
type Profile = am007fix.Profile
