(* Seed-0 reference digests at paper scale: the Figure-4 grid's cell
   statistics, and every trace-gen trace (packed words, in order).  A
   change that alters a trace or a simulated statistic fails these
   checks, and every operation they cover counts as failed; update
   them only in a change that means to alter traces or statistics. *)

let fig4 = "9207b0d3491e89008d9deb38220aec12"

let traces =
  [
    ("deriv/rapwam-1pe", "019bde58a4ed4b25");
    ("deriv/rapwam-4pe", "c30e234b9412d680");
    ("deriv/rapwam-8pe", "0ce186e15cd38abc");
    ("deriv/rapwam-8pe-det-bind", "c47a011a76e94473");
    ("deriv/wam", "d9113c307feeb6c6");
    ("matrix/rapwam-1pe", "257669e62f13e564");
    ("matrix/rapwam-4pe", "1580189b20ca0e42");
    ("matrix/rapwam-8pe", "fc34a6f22065aed5");
    ("matrix/rapwam-8pe-det-bind", "033210131078b4fb");
    ("matrix/wam", "2625082cfc82bef7");
    ("qsort/rapwam-1pe", "2311ffb0b03be694");
    ("qsort/rapwam-4pe", "ee6f19b87c0bb808");
    ("qsort/rapwam-8pe", "e2b7d028101fe739");
    ("qsort/rapwam-8pe-det-bind", "03a5403b6bc06bb2");
    ("qsort/wam", "0f9d73c74516e4db");
    ("tak/rapwam-1pe", "eb485f7f9c907705");
    ("tak/rapwam-4pe", "feaf9924306fa94d");
    ("tak/rapwam-8pe", "06e21b72c96ce907");
    ("tak/rapwam-8pe-det-bind", "1c0cc1bafc7bdc56");
    ("tak/wam", "f1781cc4fc1aa846");
  ]
