(* Cache-simulator pins: the ten [Metrics] counters of every cell of a
   grid over the four paper benchmarks at quick scale -- sequential WAM
   and RAP-WAM at 1/4/8 PEs, all five protocols, 64/512/4096-word
   caches, both allocation policies, plus the hybrid protocol with every
   tag forced Global and forced Local.  A change to the simulator's
   data structures must leave every digest unchanged, both through
   one-size simulations and through one pass over the three sizes per
   (trace, protocol, policy). *)

let quick name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

let machines b =
  [
    ("wam", 1, fun () -> Benchlib.Runner.run_wam b);
    ("rapwam-1pe", 1, fun () -> Benchlib.Runner.run_rapwam ~n_pes:1 b);
    ("rapwam-4pe", 4, fun () -> Benchlib.Runner.run_rapwam ~n_pes:4 b);
    ("rapwam-8pe", 8, fun () -> Benchlib.Runner.run_rapwam ~n_pes:8 b);
  ]

let slug k =
  String.map (fun c -> if c = ' ' then '-' else c) (Cachesim.Protocol.kind_name k)

(* (protocol label, kind, locality override) *)
let protocols =
  List.map (fun k -> (slug k, k, None)) Cachesim.Protocol.all_kinds
  @ [
      ("hybrid-global", Cachesim.Protocol.Hybrid, Some true);
      ("hybrid-local", Cachesim.Protocol.Hybrid, Some false);
    ]

let sizes = [ 64; 512; 4096 ]

let digest (m : Cachesim.Metrics.t) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d %d %d %d %d %d %d %d %d %d" m.reads m.writes m.read_misses
          m.write_misses m.fills m.writebacks m.wt_words m.invalidations m.updates
          m.bus_words))

let key name machine label cache_words write_allocate =
  Printf.sprintf "%s/%s/%s/%d/%s" name machine label cache_words
    (if write_allocate then "alloc" else "no-alloc")

(* Every cell of the grid: [trace_cells ~key ~n_pes trace] lists one
   trace's (key, digest) pairs. *)
let cells trace_cells =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun (machine, n_pes, run) ->
          trace_cells ~key:(key name machine) ~n_pes (run ()).Benchlib.Runner.trace)
        (machines (quick name)))
    [ "deriv"; "qsort"; "tak"; "matrix" ]

(* One simulation per cell. *)
let one_size ~key ~n_pes trace =
  List.concat_map
    (fun (label, kind, locality_override) ->
      List.concat_map
        (fun cache_words ->
          List.map
            (fun write_allocate ->
              ( key label cache_words write_allocate,
                digest
                  (Cachesim.Multi.simulate ~write_allocate ?locality_override ~kind
                     ~cache_words ~n_pes trace) ))
            [ true; false ])
        sizes)
    protocols

(* One pass over the three sizes per (protocol, policy). *)
let one_pass ~key ~n_pes trace =
  let p = Cachesim.Multi.prepare ~line_words:4 trace in
  List.concat_map
    (fun (label, kind, locality_override) ->
      List.concat_map
        (fun write_allocate ->
          List.map2
            (fun cache_words m -> (key label cache_words write_allocate, digest m))
            sizes
            (Cachesim.Multi.simulate_sizes ?locality_override ~write_allocate ~kind
               ~cache_words:sizes ~n_pes p))
        [ true; false ])
    protocols

(* Recorded with the hash-table simulator now kept as [Simref]. *)
let expected =
  [
    ("deriv/wam/write-through/64/alloc", "0c5087da04e38d26bc8176cfb1ef3706");
    ("deriv/wam/write-through/64/no-alloc", "c385c15902c2596ad641a97aa40fcaaf");
    ("deriv/wam/write-through/512/alloc", "c2e3a3a5873350c1349c38ba35e3322a");
    ("deriv/wam/write-through/512/no-alloc", "a0613579cd7410d44b6bc7c30bcc5fe9");
    ("deriv/wam/write-through/4096/alloc", "c2e3a3a5873350c1349c38ba35e3322a");
    ("deriv/wam/write-through/4096/no-alloc", "a0613579cd7410d44b6bc7c30bcc5fe9");
    ("deriv/wam/write-in-broadcast/64/alloc", "ac8e3a25e893857af3499df5dd8be5a5");
    ("deriv/wam/write-in-broadcast/64/no-alloc", "c0c662a81a94db663fd875cdf7331646");
    ("deriv/wam/write-in-broadcast/512/alloc", "b22339ce1ad3aa16da35fe236c07aca7");
    ("deriv/wam/write-in-broadcast/512/no-alloc", "2a0a2e2ddd25da047215ac7a6faaf388");
    ("deriv/wam/write-in-broadcast/4096/alloc", "b22339ce1ad3aa16da35fe236c07aca7");
    ("deriv/wam/write-in-broadcast/4096/no-alloc", "2a0a2e2ddd25da047215ac7a6faaf388");
    ("deriv/wam/write-through-broadcast/64/alloc", "ac8e3a25e893857af3499df5dd8be5a5");
    ("deriv/wam/write-through-broadcast/64/no-alloc", "0d91262d3575d648ae0f9c09043bb928");
    ("deriv/wam/write-through-broadcast/512/alloc", "b22339ce1ad3aa16da35fe236c07aca7");
    ("deriv/wam/write-through-broadcast/512/no-alloc", "980b15fe625aede15f60af5da603cfb7");
    ("deriv/wam/write-through-broadcast/4096/alloc", "b22339ce1ad3aa16da35fe236c07aca7");
    ("deriv/wam/write-through-broadcast/4096/no-alloc", "980b15fe625aede15f60af5da603cfb7");
    ("deriv/wam/hybrid/64/alloc", "dbcb7317a50210b588c7deac1ebaea43");
    ("deriv/wam/hybrid/64/no-alloc", "cf56d591b9b16ef6245f8ad51fd97587");
    ("deriv/wam/hybrid/512/alloc", "a8bfca6a097c26a4f34d0abf9c0a2ca5");
    ("deriv/wam/hybrid/512/no-alloc", "acd57608990ec2946dff4b323c18b79c");
    ("deriv/wam/hybrid/4096/alloc", "a8bfca6a097c26a4f34d0abf9c0a2ca5");
    ("deriv/wam/hybrid/4096/no-alloc", "acd57608990ec2946dff4b323c18b79c");
    ("deriv/wam/copyback/64/alloc", "ac8e3a25e893857af3499df5dd8be5a5");
    ("deriv/wam/copyback/64/no-alloc", "c0c662a81a94db663fd875cdf7331646");
    ("deriv/wam/copyback/512/alloc", "b22339ce1ad3aa16da35fe236c07aca7");
    ("deriv/wam/copyback/512/no-alloc", "2a0a2e2ddd25da047215ac7a6faaf388");
    ("deriv/wam/copyback/4096/alloc", "b22339ce1ad3aa16da35fe236c07aca7");
    ("deriv/wam/copyback/4096/no-alloc", "2a0a2e2ddd25da047215ac7a6faaf388");
    ("deriv/wam/hybrid-global/64/alloc", "0c5087da04e38d26bc8176cfb1ef3706");
    ("deriv/wam/hybrid-global/64/no-alloc", "c385c15902c2596ad641a97aa40fcaaf");
    ("deriv/wam/hybrid-global/512/alloc", "c2e3a3a5873350c1349c38ba35e3322a");
    ("deriv/wam/hybrid-global/512/no-alloc", "a0613579cd7410d44b6bc7c30bcc5fe9");
    ("deriv/wam/hybrid-global/4096/alloc", "c2e3a3a5873350c1349c38ba35e3322a");
    ("deriv/wam/hybrid-global/4096/no-alloc", "a0613579cd7410d44b6bc7c30bcc5fe9");
    ("deriv/wam/hybrid-local/64/alloc", "ac8e3a25e893857af3499df5dd8be5a5");
    ("deriv/wam/hybrid-local/64/no-alloc", "c0c662a81a94db663fd875cdf7331646");
    ("deriv/wam/hybrid-local/512/alloc", "b22339ce1ad3aa16da35fe236c07aca7");
    ("deriv/wam/hybrid-local/512/no-alloc", "2a0a2e2ddd25da047215ac7a6faaf388");
    ("deriv/wam/hybrid-local/4096/alloc", "b22339ce1ad3aa16da35fe236c07aca7");
    ("deriv/wam/hybrid-local/4096/no-alloc", "2a0a2e2ddd25da047215ac7a6faaf388");
    ("deriv/rapwam-1pe/write-through/64/alloc", "21d6df90511aedf803e45413ccfcbc82");
    ("deriv/rapwam-1pe/write-through/64/no-alloc", "083f2423f7e58fd41efdf17ca051bc48");
    ("deriv/rapwam-1pe/write-through/512/alloc", "1d3ba50ba50c63ee56b52b0361935ab0");
    ("deriv/rapwam-1pe/write-through/512/no-alloc", "4eaaf6177f5f6e59a572d4ddfc962f1b");
    ("deriv/rapwam-1pe/write-through/4096/alloc", "ef6038137620ba9e79d1b3450c7f7256");
    ("deriv/rapwam-1pe/write-through/4096/no-alloc", "36664149fdde767b7c8c73ee73af812a");
    ("deriv/rapwam-1pe/write-in-broadcast/64/alloc", "f980f0ffa20329fb192493657758a993");
    ("deriv/rapwam-1pe/write-in-broadcast/64/no-alloc", "50496d2bf050155ea3b0f7cb42ae15dc");
    ("deriv/rapwam-1pe/write-in-broadcast/512/alloc", "4ae3a131ae96c173feaca90a32ef206e");
    ("deriv/rapwam-1pe/write-in-broadcast/512/no-alloc", "feea250f465cee790da37d997002911a");
    ("deriv/rapwam-1pe/write-in-broadcast/4096/alloc", "d7b52ef71659bfbf7125399ea76d701b");
    ("deriv/rapwam-1pe/write-in-broadcast/4096/no-alloc", "637dfe68d67dbeb731d216290099bf58");
    ("deriv/rapwam-1pe/write-through-broadcast/64/alloc", "f980f0ffa20329fb192493657758a993");
    ("deriv/rapwam-1pe/write-through-broadcast/64/no-alloc", "1f08ad5aca6d90d6185e26af55cad90e");
    ("deriv/rapwam-1pe/write-through-broadcast/512/alloc", "4ae3a131ae96c173feaca90a32ef206e");
    ("deriv/rapwam-1pe/write-through-broadcast/512/no-alloc", "ce36c9d1eb28957591dbb5deafe2d58a");
    ("deriv/rapwam-1pe/write-through-broadcast/4096/alloc", "d7b52ef71659bfbf7125399ea76d701b");
    ("deriv/rapwam-1pe/write-through-broadcast/4096/no-alloc", "d6c1438192b2850a78f5a1443309972a");
    ("deriv/rapwam-1pe/hybrid/64/alloc", "2a2baa0b469c51d45432c486623231fa");
    ("deriv/rapwam-1pe/hybrid/64/no-alloc", "bcc4f90a565f812364b807676ec55652");
    ("deriv/rapwam-1pe/hybrid/512/alloc", "3e5521ef2d535987971cb03bc740a83c");
    ("deriv/rapwam-1pe/hybrid/512/no-alloc", "edf881f2ff9c7919509987bdb1324cdb");
    ("deriv/rapwam-1pe/hybrid/4096/alloc", "0adf486dc60fd86ce5d164dfa7c96229");
    ("deriv/rapwam-1pe/hybrid/4096/no-alloc", "58390eaef35140e32b32826fc2a051f0");
    ("deriv/rapwam-1pe/copyback/64/alloc", "f980f0ffa20329fb192493657758a993");
    ("deriv/rapwam-1pe/copyback/64/no-alloc", "50496d2bf050155ea3b0f7cb42ae15dc");
    ("deriv/rapwam-1pe/copyback/512/alloc", "4ae3a131ae96c173feaca90a32ef206e");
    ("deriv/rapwam-1pe/copyback/512/no-alloc", "feea250f465cee790da37d997002911a");
    ("deriv/rapwam-1pe/copyback/4096/alloc", "d7b52ef71659bfbf7125399ea76d701b");
    ("deriv/rapwam-1pe/copyback/4096/no-alloc", "637dfe68d67dbeb731d216290099bf58");
    ("deriv/rapwam-1pe/hybrid-global/64/alloc", "21d6df90511aedf803e45413ccfcbc82");
    ("deriv/rapwam-1pe/hybrid-global/64/no-alloc", "083f2423f7e58fd41efdf17ca051bc48");
    ("deriv/rapwam-1pe/hybrid-global/512/alloc", "1d3ba50ba50c63ee56b52b0361935ab0");
    ("deriv/rapwam-1pe/hybrid-global/512/no-alloc", "4eaaf6177f5f6e59a572d4ddfc962f1b");
    ("deriv/rapwam-1pe/hybrid-global/4096/alloc", "ef6038137620ba9e79d1b3450c7f7256");
    ("deriv/rapwam-1pe/hybrid-global/4096/no-alloc", "36664149fdde767b7c8c73ee73af812a");
    ("deriv/rapwam-1pe/hybrid-local/64/alloc", "f980f0ffa20329fb192493657758a993");
    ("deriv/rapwam-1pe/hybrid-local/64/no-alloc", "50496d2bf050155ea3b0f7cb42ae15dc");
    ("deriv/rapwam-1pe/hybrid-local/512/alloc", "4ae3a131ae96c173feaca90a32ef206e");
    ("deriv/rapwam-1pe/hybrid-local/512/no-alloc", "feea250f465cee790da37d997002911a");
    ("deriv/rapwam-1pe/hybrid-local/4096/alloc", "d7b52ef71659bfbf7125399ea76d701b");
    ("deriv/rapwam-1pe/hybrid-local/4096/no-alloc", "637dfe68d67dbeb731d216290099bf58");
    ("deriv/rapwam-4pe/write-through/64/alloc", "20840a9bf8dbe2c06ebb68fa9c0d9ddc");
    ("deriv/rapwam-4pe/write-through/64/no-alloc", "1400b366b78ad124546c7ca0312839b1");
    ("deriv/rapwam-4pe/write-through/512/alloc", "c5c1c6992443d522c121ac3287f2b700");
    ("deriv/rapwam-4pe/write-through/512/no-alloc", "b38c905c6916234b8863ed1e748528cc");
    ("deriv/rapwam-4pe/write-through/4096/alloc", "c5c1c6992443d522c121ac3287f2b700");
    ("deriv/rapwam-4pe/write-through/4096/no-alloc", "b38c905c6916234b8863ed1e748528cc");
    ("deriv/rapwam-4pe/write-in-broadcast/64/alloc", "31c383e08b90c42151dc46b6d6431bca");
    ("deriv/rapwam-4pe/write-in-broadcast/64/no-alloc", "19b0c04f02de0f9e1c3706962622fb33");
    ("deriv/rapwam-4pe/write-in-broadcast/512/alloc", "14626e9506f8bae09ebd1b2110176e34");
    ("deriv/rapwam-4pe/write-in-broadcast/512/no-alloc", "28db7b928102e4b9c3c8068fe6c29092");
    ("deriv/rapwam-4pe/write-in-broadcast/4096/alloc", "14626e9506f8bae09ebd1b2110176e34");
    ("deriv/rapwam-4pe/write-in-broadcast/4096/no-alloc", "28db7b928102e4b9c3c8068fe6c29092");
    ("deriv/rapwam-4pe/write-through-broadcast/64/alloc", "6a505e4d90674e027bd7711c03002827");
    ("deriv/rapwam-4pe/write-through-broadcast/64/no-alloc", "7c038d01b9ad0fae051ce4852bfd53f2");
    ("deriv/rapwam-4pe/write-through-broadcast/512/alloc", "9f4d54a86f5a942e0210a99b5265eaf3");
    ("deriv/rapwam-4pe/write-through-broadcast/512/no-alloc", "05f74f0117a9b40c9af5ebd567432eac");
    ("deriv/rapwam-4pe/write-through-broadcast/4096/alloc", "9f4d54a86f5a942e0210a99b5265eaf3");
    ("deriv/rapwam-4pe/write-through-broadcast/4096/no-alloc", "05f74f0117a9b40c9af5ebd567432eac");
    ("deriv/rapwam-4pe/hybrid/64/alloc", "f3fb1b96b73949d97705e86dd24b84da");
    ("deriv/rapwam-4pe/hybrid/64/no-alloc", "559efb8d9684ef8ef973fa3f205d6649");
    ("deriv/rapwam-4pe/hybrid/512/alloc", "a49644d0658b70f62f8182b820b9259c");
    ("deriv/rapwam-4pe/hybrid/512/no-alloc", "586ba3d045e05b3bd8724e0c2a50f67a");
    ("deriv/rapwam-4pe/hybrid/4096/alloc", "a49644d0658b70f62f8182b820b9259c");
    ("deriv/rapwam-4pe/hybrid/4096/no-alloc", "586ba3d045e05b3bd8724e0c2a50f67a");
    ("deriv/rapwam-4pe/copyback/64/alloc", "99c37256c7454846095b690da56b67b1");
    ("deriv/rapwam-4pe/copyback/64/no-alloc", "0da05d5582c88200eb28d5278b549104");
    ("deriv/rapwam-4pe/copyback/512/alloc", "bca1e7d1f1f8d14678cc0649be639c90");
    ("deriv/rapwam-4pe/copyback/512/no-alloc", "b85e72b68ae592ba4811a0306a52e602");
    ("deriv/rapwam-4pe/copyback/4096/alloc", "bca1e7d1f1f8d14678cc0649be639c90");
    ("deriv/rapwam-4pe/copyback/4096/no-alloc", "b85e72b68ae592ba4811a0306a52e602");
    ("deriv/rapwam-4pe/hybrid-global/64/alloc", "20840a9bf8dbe2c06ebb68fa9c0d9ddc");
    ("deriv/rapwam-4pe/hybrid-global/64/no-alloc", "1400b366b78ad124546c7ca0312839b1");
    ("deriv/rapwam-4pe/hybrid-global/512/alloc", "c5c1c6992443d522c121ac3287f2b700");
    ("deriv/rapwam-4pe/hybrid-global/512/no-alloc", "b38c905c6916234b8863ed1e748528cc");
    ("deriv/rapwam-4pe/hybrid-global/4096/alloc", "c5c1c6992443d522c121ac3287f2b700");
    ("deriv/rapwam-4pe/hybrid-global/4096/no-alloc", "b38c905c6916234b8863ed1e748528cc");
    ("deriv/rapwam-4pe/hybrid-local/64/alloc", "796d8679a39bf87f92c8f94faaca55c9");
    ("deriv/rapwam-4pe/hybrid-local/64/no-alloc", "98fdf06298f28ca01c35e9504af33064");
    ("deriv/rapwam-4pe/hybrid-local/512/alloc", "7e5f844625473ecadefc094fab801572");
    ("deriv/rapwam-4pe/hybrid-local/512/no-alloc", "2b5de89ddbb532ba5ef19827f83c182d");
    ("deriv/rapwam-4pe/hybrid-local/4096/alloc", "7e5f844625473ecadefc094fab801572");
    ("deriv/rapwam-4pe/hybrid-local/4096/no-alloc", "2b5de89ddbb532ba5ef19827f83c182d");
    ("deriv/rapwam-8pe/write-through/64/alloc", "4f7f0182bb40b7dcdcff427b4c10c6da");
    ("deriv/rapwam-8pe/write-through/64/no-alloc", "0c6b85b1c74126d299197d061ff56307");
    ("deriv/rapwam-8pe/write-through/512/alloc", "42a62fbc3c0fb7a2f9b45bec8a327a0c");
    ("deriv/rapwam-8pe/write-through/512/no-alloc", "f459aaa4bc56940569979841b7309a50");
    ("deriv/rapwam-8pe/write-through/4096/alloc", "42a62fbc3c0fb7a2f9b45bec8a327a0c");
    ("deriv/rapwam-8pe/write-through/4096/no-alloc", "f459aaa4bc56940569979841b7309a50");
    ("deriv/rapwam-8pe/write-in-broadcast/64/alloc", "9ac9e3ad0fd0f9663e686ceaaa0811f9");
    ("deriv/rapwam-8pe/write-in-broadcast/64/no-alloc", "0fbd16ab85f252649dc4f68a11c2741d");
    ("deriv/rapwam-8pe/write-in-broadcast/512/alloc", "7fab746ff73bd6b95216e048d895726c");
    ("deriv/rapwam-8pe/write-in-broadcast/512/no-alloc", "3e8caea143720f34425b77665945b94d");
    ("deriv/rapwam-8pe/write-in-broadcast/4096/alloc", "7fab746ff73bd6b95216e048d895726c");
    ("deriv/rapwam-8pe/write-in-broadcast/4096/no-alloc", "3e8caea143720f34425b77665945b94d");
    ("deriv/rapwam-8pe/write-through-broadcast/64/alloc", "432e0c09267be9c4f6676773431fd4ff");
    ("deriv/rapwam-8pe/write-through-broadcast/64/no-alloc", "b7b4ac01462ca28f01dca56ddd55d558");
    ("deriv/rapwam-8pe/write-through-broadcast/512/alloc", "d7d45a6a6fa7a6029975cb8e81a2cbc4");
    ("deriv/rapwam-8pe/write-through-broadcast/512/no-alloc", "40dbe7f7ed567723b85daafe6e60ebc4");
    ("deriv/rapwam-8pe/write-through-broadcast/4096/alloc", "d7d45a6a6fa7a6029975cb8e81a2cbc4");
    ("deriv/rapwam-8pe/write-through-broadcast/4096/no-alloc", "40dbe7f7ed567723b85daafe6e60ebc4");
    ("deriv/rapwam-8pe/hybrid/64/alloc", "acbd831a3350906c6a16dfa946330780");
    ("deriv/rapwam-8pe/hybrid/64/no-alloc", "9c364fd7a6b7e7988b270ed40775adef");
    ("deriv/rapwam-8pe/hybrid/512/alloc", "9a307a47969f06e59e9b7c069858009a");
    ("deriv/rapwam-8pe/hybrid/512/no-alloc", "cff44171552d91b36196329b4b288406");
    ("deriv/rapwam-8pe/hybrid/4096/alloc", "9a307a47969f06e59e9b7c069858009a");
    ("deriv/rapwam-8pe/hybrid/4096/no-alloc", "cff44171552d91b36196329b4b288406");
    ("deriv/rapwam-8pe/copyback/64/alloc", "66d6e5759c201cc5b47c0728cdf12804");
    ("deriv/rapwam-8pe/copyback/64/no-alloc", "bfaf84ab4497c85a2ecdcc18f8156fcf");
    ("deriv/rapwam-8pe/copyback/512/alloc", "1b4f3cf1b8b4b77429b9831f50f0a182");
    ("deriv/rapwam-8pe/copyback/512/no-alloc", "154996bcf47403229fdd3f7058615d1a");
    ("deriv/rapwam-8pe/copyback/4096/alloc", "1b4f3cf1b8b4b77429b9831f50f0a182");
    ("deriv/rapwam-8pe/copyback/4096/no-alloc", "154996bcf47403229fdd3f7058615d1a");
    ("deriv/rapwam-8pe/hybrid-global/64/alloc", "4f7f0182bb40b7dcdcff427b4c10c6da");
    ("deriv/rapwam-8pe/hybrid-global/64/no-alloc", "0c6b85b1c74126d299197d061ff56307");
    ("deriv/rapwam-8pe/hybrid-global/512/alloc", "42a62fbc3c0fb7a2f9b45bec8a327a0c");
    ("deriv/rapwam-8pe/hybrid-global/512/no-alloc", "f459aaa4bc56940569979841b7309a50");
    ("deriv/rapwam-8pe/hybrid-global/4096/alloc", "42a62fbc3c0fb7a2f9b45bec8a327a0c");
    ("deriv/rapwam-8pe/hybrid-global/4096/no-alloc", "f459aaa4bc56940569979841b7309a50");
    ("deriv/rapwam-8pe/hybrid-local/64/alloc", "8cdd5dce8c83d8ee58266629eb50ef6e");
    ("deriv/rapwam-8pe/hybrid-local/64/no-alloc", "7a38ce7b1e80f1805f84cde7e8369025");
    ("deriv/rapwam-8pe/hybrid-local/512/alloc", "0df591ef6f8316fbf21a2163f9eb58e1");
    ("deriv/rapwam-8pe/hybrid-local/512/no-alloc", "78e98a5d462a419b993d0cdad52ac67c");
    ("deriv/rapwam-8pe/hybrid-local/4096/alloc", "0df591ef6f8316fbf21a2163f9eb58e1");
    ("deriv/rapwam-8pe/hybrid-local/4096/no-alloc", "78e98a5d462a419b993d0cdad52ac67c");
    ("qsort/wam/write-through/64/alloc", "4b42668a2e9e1ab704228e16cd383905");
    ("qsort/wam/write-through/64/no-alloc", "0c359f9b412b68cbdf681e72d2881508");
    ("qsort/wam/write-through/512/alloc", "70d14e681e1821d7f7bf890137895967");
    ("qsort/wam/write-through/512/no-alloc", "b362f0a29526f56240ec28b3d19f741c");
    ("qsort/wam/write-through/4096/alloc", "77e6c4b75e73a543882dc5f22bb15067");
    ("qsort/wam/write-through/4096/no-alloc", "73a10984970f8e15298ac5d273e60c5b");
    ("qsort/wam/write-in-broadcast/64/alloc", "07fc11b298fe61561e2d962cd361290f");
    ("qsort/wam/write-in-broadcast/64/no-alloc", "b7c775c282c5e3882dda2ec22523c25c");
    ("qsort/wam/write-in-broadcast/512/alloc", "097ed662959864ba8259bae78693b761");
    ("qsort/wam/write-in-broadcast/512/no-alloc", "088058219d224ac9f1a4e15d50fa735b");
    ("qsort/wam/write-in-broadcast/4096/alloc", "2ecdf5f96ace3522798e10b1063c4450");
    ("qsort/wam/write-in-broadcast/4096/no-alloc", "8d83826dbba12e94009214f4ebe7a2cd");
    ("qsort/wam/write-through-broadcast/64/alloc", "07fc11b298fe61561e2d962cd361290f");
    ("qsort/wam/write-through-broadcast/64/no-alloc", "73e65c8666666e14a6af07b9a65312c0");
    ("qsort/wam/write-through-broadcast/512/alloc", "097ed662959864ba8259bae78693b761");
    ("qsort/wam/write-through-broadcast/512/no-alloc", "9e2378f3987f573e5191f307795f4ce6");
    ("qsort/wam/write-through-broadcast/4096/alloc", "2ecdf5f96ace3522798e10b1063c4450");
    ("qsort/wam/write-through-broadcast/4096/no-alloc", "e6ab448a98bc671e23b29e99282975b3");
    ("qsort/wam/hybrid/64/alloc", "b1307574ea83c1e06d06d98ddbb70feb");
    ("qsort/wam/hybrid/64/no-alloc", "987dbe142582a7df7fb16c50a02e77c3");
    ("qsort/wam/hybrid/512/alloc", "072ddf4f9f4ffee822e96ad115fecde8");
    ("qsort/wam/hybrid/512/no-alloc", "1922a257500b3c277d637f9a43b021f4");
    ("qsort/wam/hybrid/4096/alloc", "d1e6b71f733d0f9f822ffa9c054afdf1");
    ("qsort/wam/hybrid/4096/no-alloc", "9140643e706810009059b1e4bec7a99f");
    ("qsort/wam/copyback/64/alloc", "07fc11b298fe61561e2d962cd361290f");
    ("qsort/wam/copyback/64/no-alloc", "b7c775c282c5e3882dda2ec22523c25c");
    ("qsort/wam/copyback/512/alloc", "097ed662959864ba8259bae78693b761");
    ("qsort/wam/copyback/512/no-alloc", "088058219d224ac9f1a4e15d50fa735b");
    ("qsort/wam/copyback/4096/alloc", "2ecdf5f96ace3522798e10b1063c4450");
    ("qsort/wam/copyback/4096/no-alloc", "8d83826dbba12e94009214f4ebe7a2cd");
    ("qsort/wam/hybrid-global/64/alloc", "4b42668a2e9e1ab704228e16cd383905");
    ("qsort/wam/hybrid-global/64/no-alloc", "0c359f9b412b68cbdf681e72d2881508");
    ("qsort/wam/hybrid-global/512/alloc", "70d14e681e1821d7f7bf890137895967");
    ("qsort/wam/hybrid-global/512/no-alloc", "b362f0a29526f56240ec28b3d19f741c");
    ("qsort/wam/hybrid-global/4096/alloc", "77e6c4b75e73a543882dc5f22bb15067");
    ("qsort/wam/hybrid-global/4096/no-alloc", "73a10984970f8e15298ac5d273e60c5b");
    ("qsort/wam/hybrid-local/64/alloc", "07fc11b298fe61561e2d962cd361290f");
    ("qsort/wam/hybrid-local/64/no-alloc", "b7c775c282c5e3882dda2ec22523c25c");
    ("qsort/wam/hybrid-local/512/alloc", "097ed662959864ba8259bae78693b761");
    ("qsort/wam/hybrid-local/512/no-alloc", "088058219d224ac9f1a4e15d50fa735b");
    ("qsort/wam/hybrid-local/4096/alloc", "2ecdf5f96ace3522798e10b1063c4450");
    ("qsort/wam/hybrid-local/4096/no-alloc", "8d83826dbba12e94009214f4ebe7a2cd");
    ("qsort/rapwam-1pe/write-through/64/alloc", "3d977908b3f653e13519205688b563a0");
    ("qsort/rapwam-1pe/write-through/64/no-alloc", "62b1de15b6d87418436a297a8ffc8238");
    ("qsort/rapwam-1pe/write-through/512/alloc", "24a15d6ae703d0a41081d2bd2505fd78");
    ("qsort/rapwam-1pe/write-through/512/no-alloc", "563639e94e416fd0b1e40a6c2822e97e");
    ("qsort/rapwam-1pe/write-through/4096/alloc", "e3353e5b88223a1d2f66970f593e4561");
    ("qsort/rapwam-1pe/write-through/4096/no-alloc", "65ecc30c522e37a3fc00fc5df42818d8");
    ("qsort/rapwam-1pe/write-in-broadcast/64/alloc", "3af416485e8529d67feaa5f864ae8d97");
    ("qsort/rapwam-1pe/write-in-broadcast/64/no-alloc", "8c4a966961856c992d517e4e9727d9f4");
    ("qsort/rapwam-1pe/write-in-broadcast/512/alloc", "aac7560233aab2d42ff91934727c7002");
    ("qsort/rapwam-1pe/write-in-broadcast/512/no-alloc", "a148ca6b878edd12a727cfb768a25dc3");
    ("qsort/rapwam-1pe/write-in-broadcast/4096/alloc", "1e1b6f9dfc890c8e9dcee8db1b47a937");
    ("qsort/rapwam-1pe/write-in-broadcast/4096/no-alloc", "fc01e0482dd9a241d10603695e69c549");
    ("qsort/rapwam-1pe/write-through-broadcast/64/alloc", "3af416485e8529d67feaa5f864ae8d97");
    ("qsort/rapwam-1pe/write-through-broadcast/64/no-alloc", "d2ad9dbf456dee0e1b522dfa987df319");
    ("qsort/rapwam-1pe/write-through-broadcast/512/alloc", "aac7560233aab2d42ff91934727c7002");
    ("qsort/rapwam-1pe/write-through-broadcast/512/no-alloc", "20040b0d702ff2e520e1e0c044204c8c");
    ("qsort/rapwam-1pe/write-through-broadcast/4096/alloc", "1e1b6f9dfc890c8e9dcee8db1b47a937");
    ("qsort/rapwam-1pe/write-through-broadcast/4096/no-alloc", "ee240cbdf497d99adaeeff8f6407c680");
    ("qsort/rapwam-1pe/hybrid/64/alloc", "4d89e2de08eb545100b6f3755c0559a5");
    ("qsort/rapwam-1pe/hybrid/64/no-alloc", "7c69436c414a3913c0bff47820684094");
    ("qsort/rapwam-1pe/hybrid/512/alloc", "5081f065d5e1e2c94d4e6014dd842c48");
    ("qsort/rapwam-1pe/hybrid/512/no-alloc", "f7937af7dd585b8762ddb6d8f8f1100d");
    ("qsort/rapwam-1pe/hybrid/4096/alloc", "1cfc642669fd6df910784ad5486c3c5a");
    ("qsort/rapwam-1pe/hybrid/4096/no-alloc", "0a0081b4f059c66310b4e31361c99948");
    ("qsort/rapwam-1pe/copyback/64/alloc", "3af416485e8529d67feaa5f864ae8d97");
    ("qsort/rapwam-1pe/copyback/64/no-alloc", "8c4a966961856c992d517e4e9727d9f4");
    ("qsort/rapwam-1pe/copyback/512/alloc", "aac7560233aab2d42ff91934727c7002");
    ("qsort/rapwam-1pe/copyback/512/no-alloc", "a148ca6b878edd12a727cfb768a25dc3");
    ("qsort/rapwam-1pe/copyback/4096/alloc", "1e1b6f9dfc890c8e9dcee8db1b47a937");
    ("qsort/rapwam-1pe/copyback/4096/no-alloc", "fc01e0482dd9a241d10603695e69c549");
    ("qsort/rapwam-1pe/hybrid-global/64/alloc", "3d977908b3f653e13519205688b563a0");
    ("qsort/rapwam-1pe/hybrid-global/64/no-alloc", "62b1de15b6d87418436a297a8ffc8238");
    ("qsort/rapwam-1pe/hybrid-global/512/alloc", "24a15d6ae703d0a41081d2bd2505fd78");
    ("qsort/rapwam-1pe/hybrid-global/512/no-alloc", "563639e94e416fd0b1e40a6c2822e97e");
    ("qsort/rapwam-1pe/hybrid-global/4096/alloc", "e3353e5b88223a1d2f66970f593e4561");
    ("qsort/rapwam-1pe/hybrid-global/4096/no-alloc", "65ecc30c522e37a3fc00fc5df42818d8");
    ("qsort/rapwam-1pe/hybrid-local/64/alloc", "3af416485e8529d67feaa5f864ae8d97");
    ("qsort/rapwam-1pe/hybrid-local/64/no-alloc", "8c4a966961856c992d517e4e9727d9f4");
    ("qsort/rapwam-1pe/hybrid-local/512/alloc", "aac7560233aab2d42ff91934727c7002");
    ("qsort/rapwam-1pe/hybrid-local/512/no-alloc", "a148ca6b878edd12a727cfb768a25dc3");
    ("qsort/rapwam-1pe/hybrid-local/4096/alloc", "1e1b6f9dfc890c8e9dcee8db1b47a937");
    ("qsort/rapwam-1pe/hybrid-local/4096/no-alloc", "fc01e0482dd9a241d10603695e69c549");
    ("qsort/rapwam-4pe/write-through/64/alloc", "ee41efcc4052f26eec1168bd2a4a1775");
    ("qsort/rapwam-4pe/write-through/64/no-alloc", "829f43bc1009fb060c82e695bc1657f8");
    ("qsort/rapwam-4pe/write-through/512/alloc", "862c95519383696513d08a55bac74588");
    ("qsort/rapwam-4pe/write-through/512/no-alloc", "38f28e3a8158315d2987c6c6f7856fd0");
    ("qsort/rapwam-4pe/write-through/4096/alloc", "2ce1871e74045f33765474ede8cf355f");
    ("qsort/rapwam-4pe/write-through/4096/no-alloc", "20b815b0f202db8769d4e4c0ddc673d9");
    ("qsort/rapwam-4pe/write-in-broadcast/64/alloc", "0cbcf74ee2fc0070cacab53e16ccdb89");
    ("qsort/rapwam-4pe/write-in-broadcast/64/no-alloc", "0797fee268a0ff95d71af55ba0183cd9");
    ("qsort/rapwam-4pe/write-in-broadcast/512/alloc", "82d7a00b8244ff6290f47548ae5f9916");
    ("qsort/rapwam-4pe/write-in-broadcast/512/no-alloc", "cf1057d1b54c81e6bb17d9d9ef9799ea");
    ("qsort/rapwam-4pe/write-in-broadcast/4096/alloc", "62fcdff088e54816ffe6783be896eda0");
    ("qsort/rapwam-4pe/write-in-broadcast/4096/no-alloc", "d7978511e69c35a21c6bf52ba1f552ae");
    ("qsort/rapwam-4pe/write-through-broadcast/64/alloc", "0bd1013348a99ec73e1382927e6db177");
    ("qsort/rapwam-4pe/write-through-broadcast/64/no-alloc", "1555effd6a0266ae3ce996c5d2c1c830");
    ("qsort/rapwam-4pe/write-through-broadcast/512/alloc", "581e2df81d06aa389d2072668ee5ac29");
    ("qsort/rapwam-4pe/write-through-broadcast/512/no-alloc", "e55dcbdae52d96cb0b3a508c94afca90");
    ("qsort/rapwam-4pe/write-through-broadcast/4096/alloc", "b7f70378bd8d93ab6ecdb43edf7e52ac");
    ("qsort/rapwam-4pe/write-through-broadcast/4096/no-alloc", "90548cc1f47f0ec8216edd4c516938ae");
    ("qsort/rapwam-4pe/hybrid/64/alloc", "e270cb5fb8370a67fd40bbdd8a127a7a");
    ("qsort/rapwam-4pe/hybrid/64/no-alloc", "72e517505633e659d1d1980f8f9b95ff");
    ("qsort/rapwam-4pe/hybrid/512/alloc", "3e33d5a319bb4ae635141d42183a8abf");
    ("qsort/rapwam-4pe/hybrid/512/no-alloc", "ff717fa62bf95c34bddec106267be41c");
    ("qsort/rapwam-4pe/hybrid/4096/alloc", "fd98ba99bbb7be066e9905058c61be39");
    ("qsort/rapwam-4pe/hybrid/4096/no-alloc", "385d1409706121565395e42d6bb590ce");
    ("qsort/rapwam-4pe/copyback/64/alloc", "b319c3d4eb9c0a7b3a52fca1a68df93a");
    ("qsort/rapwam-4pe/copyback/64/no-alloc", "8b4ed215202c1cb6ea859aabaaa2accc");
    ("qsort/rapwam-4pe/copyback/512/alloc", "f6128306e0cc4f7c35c9f0b12b45c864");
    ("qsort/rapwam-4pe/copyback/512/no-alloc", "665e63ddfd3664cad13921bcfa0f7e31");
    ("qsort/rapwam-4pe/copyback/4096/alloc", "efe7081c7d51e37189335faf1df88fb9");
    ("qsort/rapwam-4pe/copyback/4096/no-alloc", "b1e6dd3953689f1623a683e45615a8e4");
    ("qsort/rapwam-4pe/hybrid-global/64/alloc", "ee41efcc4052f26eec1168bd2a4a1775");
    ("qsort/rapwam-4pe/hybrid-global/64/no-alloc", "829f43bc1009fb060c82e695bc1657f8");
    ("qsort/rapwam-4pe/hybrid-global/512/alloc", "862c95519383696513d08a55bac74588");
    ("qsort/rapwam-4pe/hybrid-global/512/no-alloc", "38f28e3a8158315d2987c6c6f7856fd0");
    ("qsort/rapwam-4pe/hybrid-global/4096/alloc", "2ce1871e74045f33765474ede8cf355f");
    ("qsort/rapwam-4pe/hybrid-global/4096/no-alloc", "20b815b0f202db8769d4e4c0ddc673d9");
    ("qsort/rapwam-4pe/hybrid-local/64/alloc", "266c723567c8e1ef3afc9c054518f056");
    ("qsort/rapwam-4pe/hybrid-local/64/no-alloc", "b9898edb8ca225e49950558c043186f5");
    ("qsort/rapwam-4pe/hybrid-local/512/alloc", "1d592e54edbb1efea75805d3de0f8abb");
    ("qsort/rapwam-4pe/hybrid-local/512/no-alloc", "687b78e8cacd6d0b780b7daae4051eee");
    ("qsort/rapwam-4pe/hybrid-local/4096/alloc", "1411927026c3463b0c876ca23fd18e57");
    ("qsort/rapwam-4pe/hybrid-local/4096/no-alloc", "f93e41ebe211586c4383082a7adbd007");
    ("qsort/rapwam-8pe/write-through/64/alloc", "16864ee0568d4b8e53bd6138b56b7cb9");
    ("qsort/rapwam-8pe/write-through/64/no-alloc", "45108c28609fb64f90422a49d9483a02");
    ("qsort/rapwam-8pe/write-through/512/alloc", "f11657f90ed4804bd3f3b6068696f9ca");
    ("qsort/rapwam-8pe/write-through/512/no-alloc", "6e88307ee78acbb2b50f5384562b25e0");
    ("qsort/rapwam-8pe/write-through/4096/alloc", "13ceb05666cd14b9035c680a4fd0fa67");
    ("qsort/rapwam-8pe/write-through/4096/no-alloc", "5db8400ebd60c625e1a5c0e819aa7998");
    ("qsort/rapwam-8pe/write-in-broadcast/64/alloc", "88ce14cf2c523f631a5924f19df13e9c");
    ("qsort/rapwam-8pe/write-in-broadcast/64/no-alloc", "70e8833653eb4f3af7fc9bbfe942e6e5");
    ("qsort/rapwam-8pe/write-in-broadcast/512/alloc", "40511bf291d79f778bd5a3bdf1f6081d");
    ("qsort/rapwam-8pe/write-in-broadcast/512/no-alloc", "13acfca2022b1e9012c30bf91a793fac");
    ("qsort/rapwam-8pe/write-in-broadcast/4096/alloc", "b060409eb3d135ca74fe43a4ae2f7a52");
    ("qsort/rapwam-8pe/write-in-broadcast/4096/no-alloc", "499eb5f715efca226f2091c3bcb3798d");
    ("qsort/rapwam-8pe/write-through-broadcast/64/alloc", "1aa70209ff33a56bf4434053176ebabc");
    ("qsort/rapwam-8pe/write-through-broadcast/64/no-alloc", "a9520fb21aa485dfc735915ebfbc666f");
    ("qsort/rapwam-8pe/write-through-broadcast/512/alloc", "dde29994fdfdf02451855a6eedd73ad5");
    ("qsort/rapwam-8pe/write-through-broadcast/512/no-alloc", "6b52050a440f790e852d3817d1808057");
    ("qsort/rapwam-8pe/write-through-broadcast/4096/alloc", "afaa0a05a927012ed1adb2cfc3341567");
    ("qsort/rapwam-8pe/write-through-broadcast/4096/no-alloc", "06921076f24dab8c96ba4e1bb400e985");
    ("qsort/rapwam-8pe/hybrid/64/alloc", "750a9261e09eb5d2ff1530c26b0a18a5");
    ("qsort/rapwam-8pe/hybrid/64/no-alloc", "cffc2287017bd4e4eaaccc4a5a7c4e1a");
    ("qsort/rapwam-8pe/hybrid/512/alloc", "083ff7e8aa2475dc18b169e88ea673d7");
    ("qsort/rapwam-8pe/hybrid/512/no-alloc", "72612668b89cbeeb9a37130482ac52f8");
    ("qsort/rapwam-8pe/hybrid/4096/alloc", "d23b68305da2008df92e40d4f9c16dd1");
    ("qsort/rapwam-8pe/hybrid/4096/no-alloc", "fbc351f842c694c67bc828c5ce5362a6");
    ("qsort/rapwam-8pe/copyback/64/alloc", "3a518582641ab44be7ea2fab07acbfc5");
    ("qsort/rapwam-8pe/copyback/64/no-alloc", "3a9568e8c1ed915cf428c3d503d3c79d");
    ("qsort/rapwam-8pe/copyback/512/alloc", "a03072ed4a340b2fd6b2d066f2c257ee");
    ("qsort/rapwam-8pe/copyback/512/no-alloc", "b61e2270122f29875deeb45df5305677");
    ("qsort/rapwam-8pe/copyback/4096/alloc", "d16b9f8b59cab97b242e3f283a616b72");
    ("qsort/rapwam-8pe/copyback/4096/no-alloc", "87c84a76d2ee9a89447bb6a83bc79465");
    ("qsort/rapwam-8pe/hybrid-global/64/alloc", "16864ee0568d4b8e53bd6138b56b7cb9");
    ("qsort/rapwam-8pe/hybrid-global/64/no-alloc", "45108c28609fb64f90422a49d9483a02");
    ("qsort/rapwam-8pe/hybrid-global/512/alloc", "f11657f90ed4804bd3f3b6068696f9ca");
    ("qsort/rapwam-8pe/hybrid-global/512/no-alloc", "6e88307ee78acbb2b50f5384562b25e0");
    ("qsort/rapwam-8pe/hybrid-global/4096/alloc", "13ceb05666cd14b9035c680a4fd0fa67");
    ("qsort/rapwam-8pe/hybrid-global/4096/no-alloc", "5db8400ebd60c625e1a5c0e819aa7998");
    ("qsort/rapwam-8pe/hybrid-local/64/alloc", "31abd221e199d0daf48b084e753e0bab");
    ("qsort/rapwam-8pe/hybrid-local/64/no-alloc", "2ef8d9a7fd303594e049e4f33e7af7b1");
    ("qsort/rapwam-8pe/hybrid-local/512/alloc", "09254f895682666825305dd3db56f9a7");
    ("qsort/rapwam-8pe/hybrid-local/512/no-alloc", "7f8a3eb95a4454d05789224e484f3a3a");
    ("qsort/rapwam-8pe/hybrid-local/4096/alloc", "e8e4fc4e05a6a72137c60a777cebe723");
    ("qsort/rapwam-8pe/hybrid-local/4096/no-alloc", "6a13cca651b944e0a6b5c4aa6d19f59e");
    ("tak/wam/write-through/64/alloc", "1b8ec2a4c6161e670b59fc55a77b018f");
    ("tak/wam/write-through/64/no-alloc", "d0741715ccf333e740e1aba55abeaef3");
    ("tak/wam/write-through/512/alloc", "6d036967ae1823b5589d8a948727ac41");
    ("tak/wam/write-through/512/no-alloc", "0889c99555a8282ea696d3c60304c01e");
    ("tak/wam/write-through/4096/alloc", "e7feaf9a11021703f32fe81dc04c8423");
    ("tak/wam/write-through/4096/no-alloc", "ad4988d60d2d1417179c70c1513dabc8");
    ("tak/wam/write-in-broadcast/64/alloc", "5d6209ce63699242c04035debf705120");
    ("tak/wam/write-in-broadcast/64/no-alloc", "183da2dc08a7ddf29841ea7daa3304d9");
    ("tak/wam/write-in-broadcast/512/alloc", "53445021feb7c7e167750b14910551f0");
    ("tak/wam/write-in-broadcast/512/no-alloc", "d99fea3805e8741dd31ad55e5352a90f");
    ("tak/wam/write-in-broadcast/4096/alloc", "7a24a617dc3fd43215585f4156791c05");
    ("tak/wam/write-in-broadcast/4096/no-alloc", "9a99dc022347f4c210e9c8d43d6ad1dc");
    ("tak/wam/write-through-broadcast/64/alloc", "5d6209ce63699242c04035debf705120");
    ("tak/wam/write-through-broadcast/64/no-alloc", "251dad01830b1aed8a4c4ce9f6ad2e47");
    ("tak/wam/write-through-broadcast/512/alloc", "53445021feb7c7e167750b14910551f0");
    ("tak/wam/write-through-broadcast/512/no-alloc", "e45c62e5fd0f46aeaf01a877bce2d08b");
    ("tak/wam/write-through-broadcast/4096/alloc", "7a24a617dc3fd43215585f4156791c05");
    ("tak/wam/write-through-broadcast/4096/no-alloc", "dc5e0f3a8419ff0b4c334eb65e99ab71");
    ("tak/wam/hybrid/64/alloc", "b0e3a41d5bb9010f3b15888b43948273");
    ("tak/wam/hybrid/64/no-alloc", "bee35ec45faf588cc284ab4ae9850ab8");
    ("tak/wam/hybrid/512/alloc", "f0c5ee56c16171d5fe20cf204fad2107");
    ("tak/wam/hybrid/512/no-alloc", "6b17e48d09e39ebf5801d90cb61c31dd");
    ("tak/wam/hybrid/4096/alloc", "0add28f63cfbae71b7e88f791143e7f5");
    ("tak/wam/hybrid/4096/no-alloc", "3350bc508d4a15f756128ca664c50c48");
    ("tak/wam/copyback/64/alloc", "5d6209ce63699242c04035debf705120");
    ("tak/wam/copyback/64/no-alloc", "183da2dc08a7ddf29841ea7daa3304d9");
    ("tak/wam/copyback/512/alloc", "53445021feb7c7e167750b14910551f0");
    ("tak/wam/copyback/512/no-alloc", "d99fea3805e8741dd31ad55e5352a90f");
    ("tak/wam/copyback/4096/alloc", "7a24a617dc3fd43215585f4156791c05");
    ("tak/wam/copyback/4096/no-alloc", "9a99dc022347f4c210e9c8d43d6ad1dc");
    ("tak/wam/hybrid-global/64/alloc", "1b8ec2a4c6161e670b59fc55a77b018f");
    ("tak/wam/hybrid-global/64/no-alloc", "d0741715ccf333e740e1aba55abeaef3");
    ("tak/wam/hybrid-global/512/alloc", "6d036967ae1823b5589d8a948727ac41");
    ("tak/wam/hybrid-global/512/no-alloc", "0889c99555a8282ea696d3c60304c01e");
    ("tak/wam/hybrid-global/4096/alloc", "e7feaf9a11021703f32fe81dc04c8423");
    ("tak/wam/hybrid-global/4096/no-alloc", "ad4988d60d2d1417179c70c1513dabc8");
    ("tak/wam/hybrid-local/64/alloc", "5d6209ce63699242c04035debf705120");
    ("tak/wam/hybrid-local/64/no-alloc", "183da2dc08a7ddf29841ea7daa3304d9");
    ("tak/wam/hybrid-local/512/alloc", "53445021feb7c7e167750b14910551f0");
    ("tak/wam/hybrid-local/512/no-alloc", "d99fea3805e8741dd31ad55e5352a90f");
    ("tak/wam/hybrid-local/4096/alloc", "7a24a617dc3fd43215585f4156791c05");
    ("tak/wam/hybrid-local/4096/no-alloc", "9a99dc022347f4c210e9c8d43d6ad1dc");
    ("tak/rapwam-1pe/write-through/64/alloc", "baa6a4381557876996ab5bf8dbf989d9");
    ("tak/rapwam-1pe/write-through/64/no-alloc", "2309edb977deb13c1f42f3685414fe2e");
    ("tak/rapwam-1pe/write-through/512/alloc", "3d7cd7331ea4a4c89c14796ee59d03f8");
    ("tak/rapwam-1pe/write-through/512/no-alloc", "6a1ccefe80822a235cbdeafec0e93d6c");
    ("tak/rapwam-1pe/write-through/4096/alloc", "a5bcb5fe395f6ba9001c46a9c9ed7824");
    ("tak/rapwam-1pe/write-through/4096/no-alloc", "b3f1188374280000363d928c0c8f112d");
    ("tak/rapwam-1pe/write-in-broadcast/64/alloc", "29ed5097342bd11853d26442034dd0b2");
    ("tak/rapwam-1pe/write-in-broadcast/64/no-alloc", "69ec1da2ceba5d2bae3c886ba1664b9b");
    ("tak/rapwam-1pe/write-in-broadcast/512/alloc", "146a522f83288d2531d28cf1239e19e2");
    ("tak/rapwam-1pe/write-in-broadcast/512/no-alloc", "170c5bd2fd8e9113a62f2d3c402fb83c");
    ("tak/rapwam-1pe/write-in-broadcast/4096/alloc", "c36085ea87fed504bb54a5c652ca735a");
    ("tak/rapwam-1pe/write-in-broadcast/4096/no-alloc", "6f034f5f07a26e47693765f49e36b2ec");
    ("tak/rapwam-1pe/write-through-broadcast/64/alloc", "29ed5097342bd11853d26442034dd0b2");
    ("tak/rapwam-1pe/write-through-broadcast/64/no-alloc", "bc771d3167f5ca64c94050c21796d536");
    ("tak/rapwam-1pe/write-through-broadcast/512/alloc", "146a522f83288d2531d28cf1239e19e2");
    ("tak/rapwam-1pe/write-through-broadcast/512/no-alloc", "61eb0946405a14e529d6026639ed4a0d");
    ("tak/rapwam-1pe/write-through-broadcast/4096/alloc", "c36085ea87fed504bb54a5c652ca735a");
    ("tak/rapwam-1pe/write-through-broadcast/4096/no-alloc", "98c5fa51d89f25aa987a611611e8b3d2");
    ("tak/rapwam-1pe/hybrid/64/alloc", "b27f49ef78a29af1287e49baa31c4002");
    ("tak/rapwam-1pe/hybrid/64/no-alloc", "6fc6a3b7701a08fb593bca8dde9273e9");
    ("tak/rapwam-1pe/hybrid/512/alloc", "e7da87a7e17a8ed0ab8210f750e49f3b");
    ("tak/rapwam-1pe/hybrid/512/no-alloc", "743ddb01b0d23295ad6a4b6c9d4d20f1");
    ("tak/rapwam-1pe/hybrid/4096/alloc", "e56ba3fa2f7c1d0dd334fea6586a4c29");
    ("tak/rapwam-1pe/hybrid/4096/no-alloc", "fe9a2a595c7e811151ca3e8a96e39ae4");
    ("tak/rapwam-1pe/copyback/64/alloc", "29ed5097342bd11853d26442034dd0b2");
    ("tak/rapwam-1pe/copyback/64/no-alloc", "69ec1da2ceba5d2bae3c886ba1664b9b");
    ("tak/rapwam-1pe/copyback/512/alloc", "146a522f83288d2531d28cf1239e19e2");
    ("tak/rapwam-1pe/copyback/512/no-alloc", "170c5bd2fd8e9113a62f2d3c402fb83c");
    ("tak/rapwam-1pe/copyback/4096/alloc", "c36085ea87fed504bb54a5c652ca735a");
    ("tak/rapwam-1pe/copyback/4096/no-alloc", "6f034f5f07a26e47693765f49e36b2ec");
    ("tak/rapwam-1pe/hybrid-global/64/alloc", "baa6a4381557876996ab5bf8dbf989d9");
    ("tak/rapwam-1pe/hybrid-global/64/no-alloc", "2309edb977deb13c1f42f3685414fe2e");
    ("tak/rapwam-1pe/hybrid-global/512/alloc", "3d7cd7331ea4a4c89c14796ee59d03f8");
    ("tak/rapwam-1pe/hybrid-global/512/no-alloc", "6a1ccefe80822a235cbdeafec0e93d6c");
    ("tak/rapwam-1pe/hybrid-global/4096/alloc", "a5bcb5fe395f6ba9001c46a9c9ed7824");
    ("tak/rapwam-1pe/hybrid-global/4096/no-alloc", "b3f1188374280000363d928c0c8f112d");
    ("tak/rapwam-1pe/hybrid-local/64/alloc", "29ed5097342bd11853d26442034dd0b2");
    ("tak/rapwam-1pe/hybrid-local/64/no-alloc", "69ec1da2ceba5d2bae3c886ba1664b9b");
    ("tak/rapwam-1pe/hybrid-local/512/alloc", "146a522f83288d2531d28cf1239e19e2");
    ("tak/rapwam-1pe/hybrid-local/512/no-alloc", "170c5bd2fd8e9113a62f2d3c402fb83c");
    ("tak/rapwam-1pe/hybrid-local/4096/alloc", "c36085ea87fed504bb54a5c652ca735a");
    ("tak/rapwam-1pe/hybrid-local/4096/no-alloc", "6f034f5f07a26e47693765f49e36b2ec");
    ("tak/rapwam-4pe/write-through/64/alloc", "19f3d67bbaf7e420d067856341a0ea3f");
    ("tak/rapwam-4pe/write-through/64/no-alloc", "62097015a1cd1ad134a25da48b55ac18");
    ("tak/rapwam-4pe/write-through/512/alloc", "c572d63a789712c4903d8c97424c0a2d");
    ("tak/rapwam-4pe/write-through/512/no-alloc", "467302d6b37335df531fb70a8b67feb1");
    ("tak/rapwam-4pe/write-through/4096/alloc", "090eacde9496f55afcefc43b252fb0f0");
    ("tak/rapwam-4pe/write-through/4096/no-alloc", "10f8539e2d856d2fd2bc52ba83a92de0");
    ("tak/rapwam-4pe/write-in-broadcast/64/alloc", "75ae5b0f6005686c887b4b4da931de31");
    ("tak/rapwam-4pe/write-in-broadcast/64/no-alloc", "4dc327a689767ace275b9980a2dda3bd");
    ("tak/rapwam-4pe/write-in-broadcast/512/alloc", "8d4c7edd3d249005d5daa5afc5522847");
    ("tak/rapwam-4pe/write-in-broadcast/512/no-alloc", "c879ab38117d9bc439c0abc0287a898a");
    ("tak/rapwam-4pe/write-in-broadcast/4096/alloc", "42e9bfd187e091dc8c72c7897595c20c");
    ("tak/rapwam-4pe/write-in-broadcast/4096/no-alloc", "b23d93e38b34eb64d16ed4a1c120ff42");
    ("tak/rapwam-4pe/write-through-broadcast/64/alloc", "4aef4aa7129ddeeda32391c7c3db67c2");
    ("tak/rapwam-4pe/write-through-broadcast/64/no-alloc", "6814cd104aba522844bbeef199fcaa89");
    ("tak/rapwam-4pe/write-through-broadcast/512/alloc", "aee7c403cccd0f7ea4a6711f9e5aaa6c");
    ("tak/rapwam-4pe/write-through-broadcast/512/no-alloc", "5042906e69abe875ab23aa5400bd4c2a");
    ("tak/rapwam-4pe/write-through-broadcast/4096/alloc", "24b2dca9ae451e8ce654257e1cfb36a8");
    ("tak/rapwam-4pe/write-through-broadcast/4096/no-alloc", "67cab0b4bed0b1eab7c5d2e34bb7c09b");
    ("tak/rapwam-4pe/hybrid/64/alloc", "cbb2d8ac07ffda9bb7294a3bc21e4fcf");
    ("tak/rapwam-4pe/hybrid/64/no-alloc", "aa32191e6630cfa972955206436237bc");
    ("tak/rapwam-4pe/hybrid/512/alloc", "e1607b44292f73398f4156de3bd92f00");
    ("tak/rapwam-4pe/hybrid/512/no-alloc", "5d375def112aba9dc2c31008c89a437b");
    ("tak/rapwam-4pe/hybrid/4096/alloc", "25fd16d9ffdee4bf84cf8e2c2901bd84");
    ("tak/rapwam-4pe/hybrid/4096/no-alloc", "b321f169b942af81520d3d0eb9a69069");
    ("tak/rapwam-4pe/copyback/64/alloc", "cfa97db10c1a11c0a7f5dfe62be3b671");
    ("tak/rapwam-4pe/copyback/64/no-alloc", "4557802714b6531f93b70fc23d7995ca");
    ("tak/rapwam-4pe/copyback/512/alloc", "dff9c1d074061b17f4cac8e77cbfd769");
    ("tak/rapwam-4pe/copyback/512/no-alloc", "ed960d9359067e32c52654c94ba8338e");
    ("tak/rapwam-4pe/copyback/4096/alloc", "f114d3df1e8e32ecb39dd8a3afa62e68");
    ("tak/rapwam-4pe/copyback/4096/no-alloc", "5177412b5da87c99e67355f415f27437");
    ("tak/rapwam-4pe/hybrid-global/64/alloc", "19f3d67bbaf7e420d067856341a0ea3f");
    ("tak/rapwam-4pe/hybrid-global/64/no-alloc", "62097015a1cd1ad134a25da48b55ac18");
    ("tak/rapwam-4pe/hybrid-global/512/alloc", "c572d63a789712c4903d8c97424c0a2d");
    ("tak/rapwam-4pe/hybrid-global/512/no-alloc", "467302d6b37335df531fb70a8b67feb1");
    ("tak/rapwam-4pe/hybrid-global/4096/alloc", "090eacde9496f55afcefc43b252fb0f0");
    ("tak/rapwam-4pe/hybrid-global/4096/no-alloc", "10f8539e2d856d2fd2bc52ba83a92de0");
    ("tak/rapwam-4pe/hybrid-local/64/alloc", "e475e4d723f883ab81bb827cd75218a0");
    ("tak/rapwam-4pe/hybrid-local/64/no-alloc", "b378988339cba973d500cccf8460d032");
    ("tak/rapwam-4pe/hybrid-local/512/alloc", "0f637457634fa4bb15115b1bbe3efcdf");
    ("tak/rapwam-4pe/hybrid-local/512/no-alloc", "2b0b52d70c3a18f7a48fc08427226fdc");
    ("tak/rapwam-4pe/hybrid-local/4096/alloc", "75ef787e384ceb06fc6787e3662fde15");
    ("tak/rapwam-4pe/hybrid-local/4096/no-alloc", "c96bf47f2e09d07401baa9a30cccccc4");
    ("tak/rapwam-8pe/write-through/64/alloc", "5c6ec848f67fc95ef41341512933d5e2");
    ("tak/rapwam-8pe/write-through/64/no-alloc", "2a57676190fe4cdaf9323cf22d0c1f30");
    ("tak/rapwam-8pe/write-through/512/alloc", "8ab75b4e87118c15ddad27ed597926cc");
    ("tak/rapwam-8pe/write-through/512/no-alloc", "cdf043387cecd2b858beb19c93c3e1bc");
    ("tak/rapwam-8pe/write-through/4096/alloc", "c2ffdba08cee360d67aee6eea5924eb9");
    ("tak/rapwam-8pe/write-through/4096/no-alloc", "1907a6f16ea2a167f002e138bf02cc1b");
    ("tak/rapwam-8pe/write-in-broadcast/64/alloc", "908f8972e37b48bd77f2d3f481089a71");
    ("tak/rapwam-8pe/write-in-broadcast/64/no-alloc", "3160607a685557e980f9ef2809d48913");
    ("tak/rapwam-8pe/write-in-broadcast/512/alloc", "ceffa954465c40ee4e6b0f9a09b2cb43");
    ("tak/rapwam-8pe/write-in-broadcast/512/no-alloc", "beb1bc24366f4e88cda9cf3010b5a434");
    ("tak/rapwam-8pe/write-in-broadcast/4096/alloc", "41b8337ce81df5a6fa185dfd0573102a");
    ("tak/rapwam-8pe/write-in-broadcast/4096/no-alloc", "ca4855262d7e374927caf95c861e61a3");
    ("tak/rapwam-8pe/write-through-broadcast/64/alloc", "9bbe63495582376a378ae3f21a568b68");
    ("tak/rapwam-8pe/write-through-broadcast/64/no-alloc", "29cd5ff42206823c6ed93dc9921691d2");
    ("tak/rapwam-8pe/write-through-broadcast/512/alloc", "eff624642d6efe75c1dd3777367e561a");
    ("tak/rapwam-8pe/write-through-broadcast/512/no-alloc", "1f2bf9706caf0aabd66912145ada23b7");
    ("tak/rapwam-8pe/write-through-broadcast/4096/alloc", "a023dc575c2d543edb6f760b25e32e05");
    ("tak/rapwam-8pe/write-through-broadcast/4096/no-alloc", "246767182342515bd48a08649f2e4e27");
    ("tak/rapwam-8pe/hybrid/64/alloc", "637e3a91a9692713cb24f11df81265c5");
    ("tak/rapwam-8pe/hybrid/64/no-alloc", "87223a4612ee097dbadab6e12b302531");
    ("tak/rapwam-8pe/hybrid/512/alloc", "43a3e27404cbfaa6fb6e510db5a1b3d2");
    ("tak/rapwam-8pe/hybrid/512/no-alloc", "09e255655c672069525c3cdd8ab6d26b");
    ("tak/rapwam-8pe/hybrid/4096/alloc", "3319f1799b708bb7e30d637328548116");
    ("tak/rapwam-8pe/hybrid/4096/no-alloc", "2a0dd36d00958791455ea506770c214d");
    ("tak/rapwam-8pe/copyback/64/alloc", "62f568149a7249c838430808506de6d6");
    ("tak/rapwam-8pe/copyback/64/no-alloc", "1bc6a3c27419c700b47868b4d1777286");
    ("tak/rapwam-8pe/copyback/512/alloc", "992dcda28fafd808c27133a15a8cf9d4");
    ("tak/rapwam-8pe/copyback/512/no-alloc", "d1b3b6fd4984716f0cabef54bfb194c3");
    ("tak/rapwam-8pe/copyback/4096/alloc", "aff7090ed7e2bb9c3bac47c989b4c637");
    ("tak/rapwam-8pe/copyback/4096/no-alloc", "626812b0047da43262d2c40c18125158");
    ("tak/rapwam-8pe/hybrid-global/64/alloc", "5c6ec848f67fc95ef41341512933d5e2");
    ("tak/rapwam-8pe/hybrid-global/64/no-alloc", "2a57676190fe4cdaf9323cf22d0c1f30");
    ("tak/rapwam-8pe/hybrid-global/512/alloc", "8ab75b4e87118c15ddad27ed597926cc");
    ("tak/rapwam-8pe/hybrid-global/512/no-alloc", "cdf043387cecd2b858beb19c93c3e1bc");
    ("tak/rapwam-8pe/hybrid-global/4096/alloc", "c2ffdba08cee360d67aee6eea5924eb9");
    ("tak/rapwam-8pe/hybrid-global/4096/no-alloc", "1907a6f16ea2a167f002e138bf02cc1b");
    ("tak/rapwam-8pe/hybrid-local/64/alloc", "bf9ad05ddae8465c7482262e9ec33c0f");
    ("tak/rapwam-8pe/hybrid-local/64/no-alloc", "bc2ff57eec4a7396fa758ac0d5ec53bb");
    ("tak/rapwam-8pe/hybrid-local/512/alloc", "db390666c269d2fd7f5b1e3a63ebb24b");
    ("tak/rapwam-8pe/hybrid-local/512/no-alloc", "e161086736d31998e22e7cd93f843000");
    ("tak/rapwam-8pe/hybrid-local/4096/alloc", "0f8199459b7fa790428647c5e6d55f76");
    ("tak/rapwam-8pe/hybrid-local/4096/no-alloc", "cc44e8edcfbc17ae2ee987c41e46b25c");
    ("matrix/wam/write-through/64/alloc", "d981e2d4e7cd6e2851430bf3cd4d8859");
    ("matrix/wam/write-through/64/no-alloc", "44e48c49e2a6bfc543ee75a301e92bc3");
    ("matrix/wam/write-through/512/alloc", "b14ff174ebe3b72d9c526950e81f3726");
    ("matrix/wam/write-through/512/no-alloc", "139aad19a49cac0414e19690ae98480a");
    ("matrix/wam/write-through/4096/alloc", "107d3f51a45bd20138d412f10a32a749");
    ("matrix/wam/write-through/4096/no-alloc", "9963f60174a3501bdbe43cddbccb926f");
    ("matrix/wam/write-in-broadcast/64/alloc", "5e01c7db57ec2221b7e830c8d8df09ef");
    ("matrix/wam/write-in-broadcast/64/no-alloc", "87c2d23d5a6bfa22a89b704febfcfa17");
    ("matrix/wam/write-in-broadcast/512/alloc", "165d25720f43799206bd8a11079f0adc");
    ("matrix/wam/write-in-broadcast/512/no-alloc", "4263d652eb6bb091661a81f47ece9c5a");
    ("matrix/wam/write-in-broadcast/4096/alloc", "e69315587a0a55593de961e175c71180");
    ("matrix/wam/write-in-broadcast/4096/no-alloc", "bf2fd4f15876dc792acdd9c12457ef02");
    ("matrix/wam/write-through-broadcast/64/alloc", "5e01c7db57ec2221b7e830c8d8df09ef");
    ("matrix/wam/write-through-broadcast/64/no-alloc", "593ee3145fbef3dc5b5e9d10d06975ca");
    ("matrix/wam/write-through-broadcast/512/alloc", "165d25720f43799206bd8a11079f0adc");
    ("matrix/wam/write-through-broadcast/512/no-alloc", "d3131f897c567189b46fb0b98df437ca");
    ("matrix/wam/write-through-broadcast/4096/alloc", "e69315587a0a55593de961e175c71180");
    ("matrix/wam/write-through-broadcast/4096/no-alloc", "bf132f5179a63f5a3fbae17ebd49dfa0");
    ("matrix/wam/hybrid/64/alloc", "6831809f47cef0ca4fad79363e518310");
    ("matrix/wam/hybrid/64/no-alloc", "1aea971fe87da30c598ab1730ea2767a");
    ("matrix/wam/hybrid/512/alloc", "12fe686afd11262c43952468ff0e79a9");
    ("matrix/wam/hybrid/512/no-alloc", "337410cf350eebad9af6db9633a4cffc");
    ("matrix/wam/hybrid/4096/alloc", "65a914304871168c3bf43a6eede78113");
    ("matrix/wam/hybrid/4096/no-alloc", "e1b2ef81cbfa25ccbdbd8b6f24658722");
    ("matrix/wam/copyback/64/alloc", "5e01c7db57ec2221b7e830c8d8df09ef");
    ("matrix/wam/copyback/64/no-alloc", "87c2d23d5a6bfa22a89b704febfcfa17");
    ("matrix/wam/copyback/512/alloc", "165d25720f43799206bd8a11079f0adc");
    ("matrix/wam/copyback/512/no-alloc", "4263d652eb6bb091661a81f47ece9c5a");
    ("matrix/wam/copyback/4096/alloc", "e69315587a0a55593de961e175c71180");
    ("matrix/wam/copyback/4096/no-alloc", "bf2fd4f15876dc792acdd9c12457ef02");
    ("matrix/wam/hybrid-global/64/alloc", "d981e2d4e7cd6e2851430bf3cd4d8859");
    ("matrix/wam/hybrid-global/64/no-alloc", "44e48c49e2a6bfc543ee75a301e92bc3");
    ("matrix/wam/hybrid-global/512/alloc", "b14ff174ebe3b72d9c526950e81f3726");
    ("matrix/wam/hybrid-global/512/no-alloc", "139aad19a49cac0414e19690ae98480a");
    ("matrix/wam/hybrid-global/4096/alloc", "107d3f51a45bd20138d412f10a32a749");
    ("matrix/wam/hybrid-global/4096/no-alloc", "9963f60174a3501bdbe43cddbccb926f");
    ("matrix/wam/hybrid-local/64/alloc", "5e01c7db57ec2221b7e830c8d8df09ef");
    ("matrix/wam/hybrid-local/64/no-alloc", "87c2d23d5a6bfa22a89b704febfcfa17");
    ("matrix/wam/hybrid-local/512/alloc", "165d25720f43799206bd8a11079f0adc");
    ("matrix/wam/hybrid-local/512/no-alloc", "4263d652eb6bb091661a81f47ece9c5a");
    ("matrix/wam/hybrid-local/4096/alloc", "e69315587a0a55593de961e175c71180");
    ("matrix/wam/hybrid-local/4096/no-alloc", "bf2fd4f15876dc792acdd9c12457ef02");
    ("matrix/rapwam-1pe/write-through/64/alloc", "0d1473f4a81b19553a87d4fc76eeaee8");
    ("matrix/rapwam-1pe/write-through/64/no-alloc", "241a298c6fbfa5ce04a34ffb2ac7a388");
    ("matrix/rapwam-1pe/write-through/512/alloc", "68dde3835433d0361e91f5a0a569d740");
    ("matrix/rapwam-1pe/write-through/512/no-alloc", "0f2360c0f7c1890654a1d1b6c33d6599");
    ("matrix/rapwam-1pe/write-through/4096/alloc", "f7178baa58b9e7df64baa5651e07ffca");
    ("matrix/rapwam-1pe/write-through/4096/no-alloc", "d801e62e4d0c277236bfddbc9f60aaa9");
    ("matrix/rapwam-1pe/write-in-broadcast/64/alloc", "3d77f9d380e27b174f2efa46a91d5c87");
    ("matrix/rapwam-1pe/write-in-broadcast/64/no-alloc", "23f459b144d59f9ece92279f8f2af6fd");
    ("matrix/rapwam-1pe/write-in-broadcast/512/alloc", "1daaa57a506db12f64ac374a74bc05ff");
    ("matrix/rapwam-1pe/write-in-broadcast/512/no-alloc", "4a83d14b169e424f114c621a3df98a51");
    ("matrix/rapwam-1pe/write-in-broadcast/4096/alloc", "25ea0a0f6415c4711b9956afa3634b87");
    ("matrix/rapwam-1pe/write-in-broadcast/4096/no-alloc", "61a47812d0e345ea17f1beaf7e13abe7");
    ("matrix/rapwam-1pe/write-through-broadcast/64/alloc", "3d77f9d380e27b174f2efa46a91d5c87");
    ("matrix/rapwam-1pe/write-through-broadcast/64/no-alloc", "04d5f74df53733f3224a0e310cce5efc");
    ("matrix/rapwam-1pe/write-through-broadcast/512/alloc", "1daaa57a506db12f64ac374a74bc05ff");
    ("matrix/rapwam-1pe/write-through-broadcast/512/no-alloc", "3c0be38f24c6b9e99d420cb14cd585f6");
    ("matrix/rapwam-1pe/write-through-broadcast/4096/alloc", "25ea0a0f6415c4711b9956afa3634b87");
    ("matrix/rapwam-1pe/write-through-broadcast/4096/no-alloc", "14393e4441f162886c7c5f84dd3a17a1");
    ("matrix/rapwam-1pe/hybrid/64/alloc", "113cbefe5019daf71bc956e520de9053");
    ("matrix/rapwam-1pe/hybrid/64/no-alloc", "c72c132035ce5464b393dcea9f5a344a");
    ("matrix/rapwam-1pe/hybrid/512/alloc", "a794b8ae74fbbfff9745d962a766ff2c");
    ("matrix/rapwam-1pe/hybrid/512/no-alloc", "9ce687146a5ce30721ff7990bfc03ff0");
    ("matrix/rapwam-1pe/hybrid/4096/alloc", "bea4ee2afc578bbde356c60f35ac9f43");
    ("matrix/rapwam-1pe/hybrid/4096/no-alloc", "98ad9098c42a2f26b02390feebe86221");
    ("matrix/rapwam-1pe/copyback/64/alloc", "3d77f9d380e27b174f2efa46a91d5c87");
    ("matrix/rapwam-1pe/copyback/64/no-alloc", "23f459b144d59f9ece92279f8f2af6fd");
    ("matrix/rapwam-1pe/copyback/512/alloc", "1daaa57a506db12f64ac374a74bc05ff");
    ("matrix/rapwam-1pe/copyback/512/no-alloc", "4a83d14b169e424f114c621a3df98a51");
    ("matrix/rapwam-1pe/copyback/4096/alloc", "25ea0a0f6415c4711b9956afa3634b87");
    ("matrix/rapwam-1pe/copyback/4096/no-alloc", "61a47812d0e345ea17f1beaf7e13abe7");
    ("matrix/rapwam-1pe/hybrid-global/64/alloc", "0d1473f4a81b19553a87d4fc76eeaee8");
    ("matrix/rapwam-1pe/hybrid-global/64/no-alloc", "241a298c6fbfa5ce04a34ffb2ac7a388");
    ("matrix/rapwam-1pe/hybrid-global/512/alloc", "68dde3835433d0361e91f5a0a569d740");
    ("matrix/rapwam-1pe/hybrid-global/512/no-alloc", "0f2360c0f7c1890654a1d1b6c33d6599");
    ("matrix/rapwam-1pe/hybrid-global/4096/alloc", "f7178baa58b9e7df64baa5651e07ffca");
    ("matrix/rapwam-1pe/hybrid-global/4096/no-alloc", "d801e62e4d0c277236bfddbc9f60aaa9");
    ("matrix/rapwam-1pe/hybrid-local/64/alloc", "3d77f9d380e27b174f2efa46a91d5c87");
    ("matrix/rapwam-1pe/hybrid-local/64/no-alloc", "23f459b144d59f9ece92279f8f2af6fd");
    ("matrix/rapwam-1pe/hybrid-local/512/alloc", "1daaa57a506db12f64ac374a74bc05ff");
    ("matrix/rapwam-1pe/hybrid-local/512/no-alloc", "4a83d14b169e424f114c621a3df98a51");
    ("matrix/rapwam-1pe/hybrid-local/4096/alloc", "25ea0a0f6415c4711b9956afa3634b87");
    ("matrix/rapwam-1pe/hybrid-local/4096/no-alloc", "61a47812d0e345ea17f1beaf7e13abe7");
    ("matrix/rapwam-4pe/write-through/64/alloc", "98bd7ac0f2f39109112fff8e6fb78a30");
    ("matrix/rapwam-4pe/write-through/64/no-alloc", "a8f68d65c058461c19b2472f57140196");
    ("matrix/rapwam-4pe/write-through/512/alloc", "6e5ee9a0f0e7e11afe924755d95734a6");
    ("matrix/rapwam-4pe/write-through/512/no-alloc", "5af2b71760cc25697d2aa38c944bb036");
    ("matrix/rapwam-4pe/write-through/4096/alloc", "ac81a0b143807530dbbf6acd46a856fe");
    ("matrix/rapwam-4pe/write-through/4096/no-alloc", "d8cd9001334cfdbe6fafc9cedf1f6d20");
    ("matrix/rapwam-4pe/write-in-broadcast/64/alloc", "a2a6ffb37888c6e492e812cb073181aa");
    ("matrix/rapwam-4pe/write-in-broadcast/64/no-alloc", "deac81131632b4fa4ab42ef9faa1abac");
    ("matrix/rapwam-4pe/write-in-broadcast/512/alloc", "4a1046acc4325d65c5de78b888164faf");
    ("matrix/rapwam-4pe/write-in-broadcast/512/no-alloc", "bdbff74b82ab8394912d39e7f0ddcc29");
    ("matrix/rapwam-4pe/write-in-broadcast/4096/alloc", "61b604017dc9372b8ddbf2339c0eb0d5");
    ("matrix/rapwam-4pe/write-in-broadcast/4096/no-alloc", "c9d727b3e3a85b4daf847f9b5e970f6e");
    ("matrix/rapwam-4pe/write-through-broadcast/64/alloc", "75cc2b8584ee8cf7bf52a46ee0c37a60");
    ("matrix/rapwam-4pe/write-through-broadcast/64/no-alloc", "3465279dc5e460ee35834ecf3b702e8d");
    ("matrix/rapwam-4pe/write-through-broadcast/512/alloc", "9c57a79a6f874ccdf4605d32c1f9afed");
    ("matrix/rapwam-4pe/write-through-broadcast/512/no-alloc", "8b408896355593ff13f0a3aa3780f3ec");
    ("matrix/rapwam-4pe/write-through-broadcast/4096/alloc", "598cabaf59a6f40c82470f9f6cb697ec");
    ("matrix/rapwam-4pe/write-through-broadcast/4096/no-alloc", "3288002190becd7e19f5033c906d3b29");
    ("matrix/rapwam-4pe/hybrid/64/alloc", "e1be4d3eeadf1a4c096d18c6ab25e98e");
    ("matrix/rapwam-4pe/hybrid/64/no-alloc", "7be63692b5e8c40ef2d5f9e99bbe6dc2");
    ("matrix/rapwam-4pe/hybrid/512/alloc", "8a73fefbf1f31b01e2dc22d1e5870720");
    ("matrix/rapwam-4pe/hybrid/512/no-alloc", "ddeae25da2caf3afa68b99cef2a128b2");
    ("matrix/rapwam-4pe/hybrid/4096/alloc", "6f993f5c3470d93d642d5514d5405551");
    ("matrix/rapwam-4pe/hybrid/4096/no-alloc", "9aa02f1135ddaff3c4626c6c4f58d0f7");
    ("matrix/rapwam-4pe/copyback/64/alloc", "8a956070b6d6a204d872fc21223a6f28");
    ("matrix/rapwam-4pe/copyback/64/no-alloc", "12522be0807edb00c6051b34b8106b29");
    ("matrix/rapwam-4pe/copyback/512/alloc", "19a65efd4296d8398b191e0dc7b20660");
    ("matrix/rapwam-4pe/copyback/512/no-alloc", "4102376424ed0d73c0ee1fec7536df5f");
    ("matrix/rapwam-4pe/copyback/4096/alloc", "e7753fd247be7ff25994bf7563607fb4");
    ("matrix/rapwam-4pe/copyback/4096/no-alloc", "96b211be7562f0a189788d215f006b6e");
    ("matrix/rapwam-4pe/hybrid-global/64/alloc", "98bd7ac0f2f39109112fff8e6fb78a30");
    ("matrix/rapwam-4pe/hybrid-global/64/no-alloc", "a8f68d65c058461c19b2472f57140196");
    ("matrix/rapwam-4pe/hybrid-global/512/alloc", "6e5ee9a0f0e7e11afe924755d95734a6");
    ("matrix/rapwam-4pe/hybrid-global/512/no-alloc", "5af2b71760cc25697d2aa38c944bb036");
    ("matrix/rapwam-4pe/hybrid-global/4096/alloc", "ac81a0b143807530dbbf6acd46a856fe");
    ("matrix/rapwam-4pe/hybrid-global/4096/no-alloc", "d8cd9001334cfdbe6fafc9cedf1f6d20");
    ("matrix/rapwam-4pe/hybrid-local/64/alloc", "55d5cef647fb7a34b71deb4939cfdda7");
    ("matrix/rapwam-4pe/hybrid-local/64/no-alloc", "87e32aa4b6ee89bbf3e89d440aeb4773");
    ("matrix/rapwam-4pe/hybrid-local/512/alloc", "a5fdf727996a7a31bc2ade4d98cae70f");
    ("matrix/rapwam-4pe/hybrid-local/512/no-alloc", "5436714ca3408464d39e9cdcbecac584");
    ("matrix/rapwam-4pe/hybrid-local/4096/alloc", "1778050448ae03acab6795c8abe54eaa");
    ("matrix/rapwam-4pe/hybrid-local/4096/no-alloc", "637a2764b37165f57d37ef3ec5c9e4de");
    ("matrix/rapwam-8pe/write-through/64/alloc", "e59139bd2fae654c6d23a4d8bde2195e");
    ("matrix/rapwam-8pe/write-through/64/no-alloc", "4c473e00c3c2831ca162c58ef912ef03");
    ("matrix/rapwam-8pe/write-through/512/alloc", "3c1671cbee03e2498e73efcb58fcdfb5");
    ("matrix/rapwam-8pe/write-through/512/no-alloc", "61835ca4d3a3ac54d4f4b1ed5b2d51bf");
    ("matrix/rapwam-8pe/write-through/4096/alloc", "94154bcb15b971118105f73d2e21c3e0");
    ("matrix/rapwam-8pe/write-through/4096/no-alloc", "104b253d49127b758c4c9f81b5de1b54");
    ("matrix/rapwam-8pe/write-in-broadcast/64/alloc", "40089939825228be36b0e9776f7d4846");
    ("matrix/rapwam-8pe/write-in-broadcast/64/no-alloc", "5cfc34b410cb261ee77dbf8654dcd02e");
    ("matrix/rapwam-8pe/write-in-broadcast/512/alloc", "f04926621e90ecb75cb8ae39784273eb");
    ("matrix/rapwam-8pe/write-in-broadcast/512/no-alloc", "2f4e0d0c60a2f4d5e40ee0744709041a");
    ("matrix/rapwam-8pe/write-in-broadcast/4096/alloc", "d476cae4bfe70633af998433e486e485");
    ("matrix/rapwam-8pe/write-in-broadcast/4096/no-alloc", "8f7fae16ff3823fb5fdff7a33eb77faa");
    ("matrix/rapwam-8pe/write-through-broadcast/64/alloc", "a5580d1f5435d5ae17149ec0f64d5880");
    ("matrix/rapwam-8pe/write-through-broadcast/64/no-alloc", "351d3b2eb737fb1226f5de76cc27a031");
    ("matrix/rapwam-8pe/write-through-broadcast/512/alloc", "9d2632ee1db2dde949731bd455fa90d1");
    ("matrix/rapwam-8pe/write-through-broadcast/512/no-alloc", "1a04b1b2f6731eaaf0fd9890826e7a4a");
    ("matrix/rapwam-8pe/write-through-broadcast/4096/alloc", "faea19ff16bafd90e7f0d1c2ca32097a");
    ("matrix/rapwam-8pe/write-through-broadcast/4096/no-alloc", "c6f7e3e6367b2a8bb4cfbcaeebe73a9d");
    ("matrix/rapwam-8pe/hybrid/64/alloc", "78a5cbcd2bcbb4703b0a6cea78520480");
    ("matrix/rapwam-8pe/hybrid/64/no-alloc", "933ea07bf0bd24171de26300cf49afc0");
    ("matrix/rapwam-8pe/hybrid/512/alloc", "981a5ee2879a263993a88aceecc94471");
    ("matrix/rapwam-8pe/hybrid/512/no-alloc", "4c952f88fff8e7030f2103271eb4ba3c");
    ("matrix/rapwam-8pe/hybrid/4096/alloc", "0f57f0d4eafb351f621dd2545d129a8c");
    ("matrix/rapwam-8pe/hybrid/4096/no-alloc", "b60d5e1e545ee9445d1624bb687ec07b");
    ("matrix/rapwam-8pe/copyback/64/alloc", "cee48f1adeb0c377080e082c69ef7956");
    ("matrix/rapwam-8pe/copyback/64/no-alloc", "528ca19be2035ad706f6de6a7b961e41");
    ("matrix/rapwam-8pe/copyback/512/alloc", "e7f7c1aacc866baa2369ef67c703c1bb");
    ("matrix/rapwam-8pe/copyback/512/no-alloc", "667ec4b928eccbe84eacec067ff33a14");
    ("matrix/rapwam-8pe/copyback/4096/alloc", "8e49a067e269847b736076537329e388");
    ("matrix/rapwam-8pe/copyback/4096/no-alloc", "73c99cb94078586fd3780e8518959090");
    ("matrix/rapwam-8pe/hybrid-global/64/alloc", "e59139bd2fae654c6d23a4d8bde2195e");
    ("matrix/rapwam-8pe/hybrid-global/64/no-alloc", "4c473e00c3c2831ca162c58ef912ef03");
    ("matrix/rapwam-8pe/hybrid-global/512/alloc", "3c1671cbee03e2498e73efcb58fcdfb5");
    ("matrix/rapwam-8pe/hybrid-global/512/no-alloc", "61835ca4d3a3ac54d4f4b1ed5b2d51bf");
    ("matrix/rapwam-8pe/hybrid-global/4096/alloc", "94154bcb15b971118105f73d2e21c3e0");
    ("matrix/rapwam-8pe/hybrid-global/4096/no-alloc", "104b253d49127b758c4c9f81b5de1b54");
    ("matrix/rapwam-8pe/hybrid-local/64/alloc", "1286665cf235d4844b2fd72766438939");
    ("matrix/rapwam-8pe/hybrid-local/64/no-alloc", "d155f51b8886276d91d9df08a08ded16");
    ("matrix/rapwam-8pe/hybrid-local/512/alloc", "dd316ee9616be05cf20c29931b267e6e");
    ("matrix/rapwam-8pe/hybrid-local/512/no-alloc", "b8348d347ea143b3e8fda2e63d1b1d69");
    ("matrix/rapwam-8pe/hybrid-local/4096/alloc", "94974b3a6a71b6de0b6e083eb7ad0e5f");
    ("matrix/rapwam-8pe/hybrid-local/4096/no-alloc", "dfca63ce367d7123c537ad33fa93b6bd");
  ]

let check_pins got =
  Alcotest.(check int) "cell count" (List.length expected) (List.length got);
  let bad = List.filter (fun (k, d) -> List.assoc_opt k expected <> Some d) got in
  if bad <> [] then
    Alcotest.failf "%d of %d simulator digests moved:\n%s" (List.length bad)
      (List.length got)
      (String.concat "\n" (List.map (fun (k, d) -> Printf.sprintf "    (%S, %S);" k d) bad))

let test_pins () = check_pins (cells one_size)
let test_pins_one_pass () = check_pins (cells one_pass)

let suite =
  [
    Alcotest.test_case "simulator counters match the pinned digests" `Quick test_pins;
    Alcotest.test_case "one pass per size list matches the pinned digests" `Quick
      test_pins_one_pass;
  ]
