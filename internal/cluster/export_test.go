package cluster

// UserDSL and AliasOpts give the external SC8 golden test the Listing 1
// type the in-package tests declare.
const UserDSL = userDSL

var AliasOpts = aliasOpts
