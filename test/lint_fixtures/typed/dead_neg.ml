(* Negative fixture for typ-dead-export: every library value is live.
   [Core.leaf] is two library hops below the root ([Exe.main] ->
   [Api.run] -> [Core.middle] -> [Core.leaf]); [Aliased.via_alias] is
   reached only through the executable's module alias; [Boot.register]
   is called from a library module initialiser. *)

module Lib = struct
  module Core = struct
    let leaf x = x + 1
    let middle x = leaf x * 2
  end

  module Api = struct
    let run x = Core.middle x
  end

  module Aliased = struct
    let via_alias x = x
  end

  module Boot = struct
    let registered = ref 0
    let register () = incr registered
  end

  let () = Boot.register ()
end

module Exe = struct
  module A = Lib.Aliased

  let main () = Lib.Api.run (A.via_alias 1)
end
